// Package user is the non-test caller of package lib. It is not
// under internal/, so its own unused exports are not reported.
package user

import "deadexports/internal/lib"

func Use() float64 {
	lib.UsedOutside()
	var s lib.Sampler = lib.Impl{}
	return s.Sample()
}
