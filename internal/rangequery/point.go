package rangequery

// Point is a 2-D point. In the optimizer's use, X is a primary-request
// response time and Y is its paired reissue response time.
type Point struct {
	X, Y float64
}
