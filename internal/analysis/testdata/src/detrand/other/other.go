// Package other shows detrand's scope: the determinism contract applies only
// to the kernel packages (binauto, svm, sgd), so global randomness
// and wall-clock reads here are legal — and the fixture asserts no
// diagnostics fire.
package other

import (
	"math/rand"
	"time"
)

func timestamp() time.Time {
	return time.Now()
}

func jitter() float64 {
	return rand.Float64()
}
