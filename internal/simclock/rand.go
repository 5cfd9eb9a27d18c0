package simclock

import (
	"math"
	"math/rand"
	"strconv"
	"sync"
)

// Rand is a deterministic random stream used throughout the simulator.
// Distinct components derive independent streams from a root seed and a
// label, so adding a new consumer never perturbs existing streams.
type Rand struct {
	src *rand.Rand
}

// NewRand returns a stream seeded with seed. The source is lazySource —
// bit-identical to rand.NewSource(seed) for every seed (pinned by
// TestLazySourceMatchesMathRand) but with O(draws) seeding cost, which
// matters because hot paths derive thousands of short-lived streams.
// The hottest of them do not call NewRand per stream at all:
//
//   - the executor draws two or three per-decision streams per simulated
//     node execution (duration, utilization, branch outcome); it reseeds
//     one engine-owned Rand in place (Seed) from a LabelHash, so a
//     simulated hop builds neither a label string nor a register;
//   - the solver derives one stream per HBSS proposal through the pool
//     (AcquireDerived / Release);
//   - the Monte Carlo snapshot's untaped estimates reseed a pooled stream
//     per estimate (AcquireRand).
//
// Only the plan-level Monte Carlo reference (montecarlo.Estimator)
// still derives a fresh stream per estimate with DeriveRand.
func NewRand(seed int64) *Rand {
	return &Rand{src: rand.New(newLazySource(seed))}
}

// Seed resets r in place to the stream NewRand(seed) returns. Reseeding
// reuses r's register, so a caller that derives many short-lived streams
// on one goroutine can keep a single scratch Rand instead of allocating
// one per stream.
func (r *Rand) Seed(seed int64) { r.src.Seed(seed) }

// FNV-64a parameters (hash/fnv).
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// LabelHash derives DeriveSeed(seed, label) from the label's parts fed
// one after another, so a hot path never builds the label string:
//
//	NewLabelHash(seed).Add("wf").Add("/").AddUint(7).Seed()
//
// equals DeriveSeed(seed, "wf/7"). It is a value type; each method
// returns the extended hash.
type LabelHash uint64

// NewLabelHash starts a derivation for root seed: the FNV-64a state
// after the seed's eight little-endian bytes.
func NewLabelHash(seed int64) LabelHash {
	h := LabelHash(fnvOffset64)
	for i := 0; i < 8; i++ {
		h = h.addByte(byte(seed >> (8 * i)))
	}
	return h
}

// addByte feeds one label byte.
func (h LabelHash) addByte(b byte) LabelHash {
	return (h ^ LabelHash(b)) * fnvPrime64
}

// Add feeds s.
func (h LabelHash) Add(s string) LabelHash {
	for i := 0; i < len(s); i++ {
		h = h.addByte(s[i])
	}
	return h
}

// AddUint feeds v in decimal, as fmt's %d prints it.
func (h LabelHash) AddUint(v uint64) LabelHash {
	var buf [20]byte
	for _, b := range strconv.AppendUint(buf[:0], v, 10) {
		h = h.addByte(b)
	}
	return h
}

// Seed returns the derived child seed.
func (h LabelHash) Seed() int64 { return int64(h) }

// DeriveSeed returns the child seed DeriveRand would seed its stream with
// for (seed, label): FNV-64a over the seed's eight little-endian bytes
// followed by the label. It is exposed so hot paths that derive many
// sibling streams — e.g. the solver's per-iteration proposal streams —
// can compute or compare stream identities without constructing a Rand;
// LabelHash computes the same value from the label's parts.
func DeriveSeed(seed int64, label string) int64 {
	return NewLabelHash(seed).Add(label).Seed()
}

// DeriveRand returns an independent stream derived from a root seed and a
// label. The derivation is a stable hash, so the same (seed, label) pair
// always yields the same stream.
func DeriveRand(seed int64, label string) *Rand {
	return NewRand(DeriveSeed(seed, label))
}

// randPool recycles Rand streams. A lazySource register is ~5.6 KB, and
// the pooled paths (one stream per HBSS proposal, one per untaped
// snapshot estimate) derive thousands of short-lived streams per solve — re-seeding a
// pooled register produces the bit-identical stream (Seed fully resets
// x0, tap, feed, and the presence bitmap) without the allocation.
var randPool = sync.Pool{New: func() any { return NewRand(0) }}

// AcquireRand returns a pooled stream seeded with seed — bit-identical
// to NewRand(seed). Pair with Release when the stream is done; never use
// a stream after releasing it.
func AcquireRand(seed int64) *Rand {
	r := randPool.Get().(*Rand)
	r.Seed(seed)
	return r
}

// AcquireDerived is the pooled DeriveRand: a stream for (seed, label)
// that Release returns for reuse.
func AcquireDerived(seed int64, label string) *Rand {
	return AcquireRand(DeriveSeed(seed, label))
}

// Release returns a stream obtained from AcquireRand or AcquireDerived
// to the pool.
func (r *Rand) Release() { randPool.Put(r) }

// Float64 returns a uniform value in [0, 1).
func (r *Rand) Float64() float64 { return r.src.Float64() }

// Intn returns a uniform value in [0, n).
func (r *Rand) Intn(n int) int { return r.src.Intn(n) }

// Int63 returns a non-negative pseudo-random 63-bit integer.
func (r *Rand) Int63() int64 { return r.src.Int63() }

// Uniform returns a uniform value in [lo, hi).
func (r *Rand) Uniform(lo, hi float64) float64 {
	return lo + (hi-lo)*r.src.Float64()
}

// Normal returns a normally distributed value.
func (r *Rand) Normal(mean, stddev float64) float64 {
	return mean + stddev*r.src.NormFloat64()
}

// LogNormal returns a log-normally distributed value with the given
// parameters of the underlying normal (mu, sigma).
func (r *Rand) LogNormal(mu, sigma float64) float64 {
	return math.Exp(r.Normal(mu, sigma))
}

// Exponential returns an exponentially distributed value with the given
// mean.
func (r *Rand) Exponential(mean float64) float64 {
	return r.src.ExpFloat64() * mean
}

// Poisson returns a Poisson-distributed count with the given mean, using
// Knuth's method for small means and a normal approximation above 64.
func (r *Rand) Poisson(mean float64) int {
	if mean <= 0 {
		return 0
	}
	if mean > 64 {
		v := r.Normal(mean, math.Sqrt(mean))
		if v < 0 {
			return 0
		}
		return int(v + 0.5)
	}
	l := math.Exp(-mean)
	k := 0
	p := 1.0
	for {
		p *= r.src.Float64()
		if p <= l {
			return k
		}
		k++
	}
}

// Bool returns true with probability p.
func (r *Rand) Bool(p float64) bool { return r.src.Float64() < p }

// Perm returns a random permutation of [0, n).
func (r *Rand) Perm(n int) []int { return r.src.Perm(n) }
