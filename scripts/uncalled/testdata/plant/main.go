package main

import "example.com/plant/lib"

func main() {
	lib.Used()
	var s lib.Shape = lib.Sq{}
	_ = s.Area()
}
