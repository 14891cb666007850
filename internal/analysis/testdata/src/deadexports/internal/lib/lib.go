// Package lib is an internal package whose exported names are used
// in every way deadexports must recognise, and in none.
package lib

func Dead() {} // want `exported name Dead has no non-test user`

// UsedOutside is called by package user.
func UsedOutside() {}

// UsedInside is called by an unexported function of this package.
func UsedInside() {}

func helper() { UsedInside() }

// Recursive calls only itself, which is not a use.
func Recursive(n int) int { // want `exported name Recursive has no non-test user`
	if n == 0 {
		return 0
	}
	return Recursive(n - 1)
}

// Sampler is the interface package user calls through.
type Sampler interface{ Sample() float64 }

// Impl is named by package user.
type Impl struct{}

// Sample satisfies Sampler; no identifier names Impl.Sample.
func (Impl) Sample() float64 { return 0 }

func (Impl) Unused() {} // want `exported method Impl.Unused has no non-test user`

// Orphan is mentioned only by its own methods.
type Orphan struct{} // want `exported name Orphan has no non-test user`

func (o *Orphan) self() *Orphan { return o }

//lint:allow deadexports the reference implementation a test compares against
func Reference() {}

var Var = 1 // want `exported name Var has no non-test user`

// Const is used by a package-level declaration of this package.
const Const = 2

var internalCopy = Const
