package main

import "example.com/plant/lib"

func main() { lib.BySub() }
