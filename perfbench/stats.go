package main

import (
	"math"
	"sort"
)

// quantile returns the Harrell–Davis estimate of the q-quantile of xs
// (0 for none): a weighted mean of all order statistics, with Beta
// weights centred on rank q·n. Nearest-rank percentiles jump when a
// distribution has modes on both sides of the rank, as write latency
// does with its fast inserts and slow deletes; this estimate moves
// smoothly instead.
func quantile(xs []float64, q float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	switch {
	case n == 1 || q <= 0:
		return s[0]
	case q >= 1:
		return s[n-1]
	}
	a, b := q*float64(n+1), (1-q)*float64(n+1)
	est, prev := 0.0, 0.0
	for i := 1; i <= n; i++ {
		cdf := betaCDF(float64(i)/float64(n), a, b)
		est += (cdf - prev) * s[i-1]
		prev = cdf
	}
	return est
}

// betaCDF is the regularized incomplete beta function I_x(a, b).
func betaCDF(x, a, b float64) float64 {
	switch {
	case x <= 0:
		return 0
	case x >= 1:
		return 1
	}
	la, _ := math.Lgamma(a)
	lb, _ := math.Lgamma(b)
	lab, _ := math.Lgamma(a + b)
	front := math.Exp(lab - la - lb + a*math.Log(x) + b*math.Log1p(-x))
	if x < (a+1)/(a+b+2) {
		return front * betaFraction(x, a, b) / a
	}
	return 1 - front*betaFraction(1-x, b, a)/b
}

// betaFraction evaluates the continued fraction of I_x(a, b) by the
// modified Lentz method.
func betaFraction(x, a, b float64) float64 {
	const tiny = 1e-300
	c, d := 1.0, 1-(a+b)*x/(a+1)
	if math.Abs(d) < tiny {
		d = tiny
	}
	d = 1 / d
	h := d
	for m := 1; m <= 100000; m++ {
		fm := float64(m)
		for _, num := range [2]float64{
			fm * (b - fm) * x / ((a + 2*fm - 1) * (a + 2*fm)),
			-(a + fm) * (a + b + fm) * x / ((a + 2*fm) * (a + 2*fm + 1)),
		} {
			d = 1 + num*d
			if math.Abs(d) < tiny {
				d = tiny
			}
			c = 1 + num/c
			if math.Abs(c) < tiny {
				c = tiny
			}
			d = 1 / d
			h *= d * c
		}
		if math.Abs(d*c-1) < 1e-14 {
			break
		}
	}
	return h
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
