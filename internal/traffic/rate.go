// Package traffic models the paper's workload generator (§IV-C): packet
// arrival rates follow the Holt-Winters-style model of equation 1,
//
//	x_i(t) = a + b·t + C·S(t % m) + n(σ)        [Mpps]
//
// per service, while flow identities come from trace sources. The two
// parameter sets of Table IV (under-load and overload for a 16-core
// system) are provided as Set1 and Set2.
package traffic

import (
	"math"

	"laps/internal/packet"
)

// RateParams are the per-service coefficients of equation 1. Rates are
// in Mpps and times in (model) seconds, exactly as Table IV lists them.
type RateParams struct {
	A      float64 // a: baseline traffic component
	B      float64 // b: trend component, Mpps per second
	C      float64 // C: magnitude of the seasonal component
	Period float64 // m: period of the seasonal component, seconds
	Sigma  float64 // σ: standard deviation of the noise term
}

// Seasonal is the unit seasonal shape S. We use a sinusoid, the usual
// choice for Holt-Winters synthetic load (the paper does not specify S).
func Seasonal(phase float64) float64 {
	return math.Sin(2 * math.Pi * phase)
}

// Mean returns the noise-free rate in Mpps at model time t seconds.
func (p RateParams) Mean(t float64) float64 {
	phase := 0.0
	if p.Period > 0 {
		phase = math.Mod(t, p.Period) / p.Period
	}
	return p.A + p.B*t + p.C*Seasonal(phase)
}

// Rate returns the rate in Mpps at model time t with a supplied noise
// sample (so callers control the randomness), clamped to a small floor
// so the arrival process never stalls entirely.
func (p RateParams) Rate(t, noise float64) float64 {
	r := p.Mean(t) + noise*p.Sigma
	const floor = 0.001 // 1 kpps
	if r < floor {
		return floor
	}
	return r
}

// Set1 returns Table IV's parameter Set 1: "the under-load scenario i.e.,
// the aggregate traffic rate is less than the ideal capacity of 16
// cores". Indexed by service: S1..S4 are paths 1..4. The paper prints
// S2's trend as "025"; we read it as 0.025 Mpps/s (0.25 would overflow
// any 16-core configuration within seconds, contradicting "under-load").
func Set1() [packet.NumServices]RateParams {
	return [packet.NumServices]RateParams{
		packet.SvcVPNOut:      {A: 1.0, B: 0.03, C: 0.3, Period: 40, Sigma: 0.1},
		packet.SvcIPForward:   {A: 1.8, B: 0.025, C: 0.1, Period: 25, Sigma: 0.05},
		packet.SvcMalwareScan: {A: 0.5, B: 0.01, C: 0.07, Period: 60, Sigma: 0.25},
		packet.SvcVPNIn:       {A: 0.3, B: 0.005, C: 0.09, Period: 600, Sigma: 0.3},
	}
}

// Set2 returns Table IV's parameter Set 2: "an overload scenario i.e.,
// the data rate is more than the capacity of the 16 core system". S2's
// trend is printed as "02"; we read it as 0.02 Mpps/s.
func Set2() [packet.NumServices]RateParams {
	return [packet.NumServices]RateParams{
		packet.SvcVPNOut:      {A: 1.5, B: 0.002, C: 0.3, Period: 100, Sigma: 0.3},
		packet.SvcIPForward:   {A: 1.3, B: 0.02, C: 0.15, Period: 25, Sigma: 0.05},
		packet.SvcMalwareScan: {A: 1.0, B: 0.004, C: 0.25, Period: 30, Sigma: 0.25},
		packet.SvcVPNIn:       {A: 0.7, B: 0.01, C: 0.18, Period: 200, Sigma: 0.3},
	}
}
