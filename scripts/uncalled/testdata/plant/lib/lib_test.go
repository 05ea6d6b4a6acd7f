package lib

import "testing"

// A test call does not count as a caller.
func TestPlanted(t *testing.T) { Planted() }
