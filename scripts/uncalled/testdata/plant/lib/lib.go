// Package lib is the scanner's fixture: one exported name of each kind
// the scan must tell apart.
package lib

// Used is called from the root module's main.
func Used() {}

// BySub is called only from the nested module, the way bench/ calls
// the root module.
func BySub() {}

// Planted has no caller outside a test file: the scan must report it.
func Planted() {}

// Shape is called through by main.
type Shape interface{ Area() int }

// Sq implements Shape.
type Sq struct{}

// Area is reached only through Shape.
func (Sq) Area() int { return 1 }

// String is found by fmt through a type assertion.
func (Sq) String() string { return "sq" }

// Planted has no caller at all: the scan must report it.
func (Sq) Planted() {}
