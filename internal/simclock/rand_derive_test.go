package simclock

import (
	"fmt"
	"hash/fnv"
	"math"
	"testing"
)

func TestDeriveSeedStableAndLabelSensitive(t *testing.T) {
	a := DeriveSeed(7, "solver/0/1")
	if a != DeriveSeed(7, "solver/0/1") {
		t.Error("same (seed, label) must derive the same seed")
	}
	if a == DeriveSeed(7, "solver/0/2") {
		t.Error("sibling labels must derive distinct seeds")
	}
	if a == DeriveSeed(8, "solver/0/1") {
		t.Error("distinct root seeds must derive distinct seeds")
	}
}

func TestDeriveRandMatchesDeriveSeed(t *testing.T) {
	// DeriveRand is defined as NewRand(DeriveSeed(...)): the two
	// constructions must yield identical streams.
	a := DeriveRand(42, "mc/wf/100")
	b := NewRand(DeriveSeed(42, "mc/wf/100"))
	for i := 0; i < 16; i++ {
		if a.Float64() != b.Float64() {
			t.Fatalf("streams diverge at draw %d", i)
		}
	}
}

// fnvDeriveSeed is the reference derivation: hash/fnv's FNV-64a over the
// seed's little-endian bytes followed by the label.
func fnvDeriveSeed(seed int64, label string) int64 {
	h := fnv.New64a()
	var b [8]byte
	for i := range b {
		b[i] = byte(seed >> (8 * i))
	}
	h.Write(b[:])
	h.Write([]byte(label))
	return int64(h.Sum64())
}

func TestDeriveSeedMatchesHashFNV(t *testing.T) {
	for _, seed := range []int64{0, 1, 7, -1, math.MinInt64, math.MaxInt64, 1 << 40} {
		for _, label := range []string{"", "platform", "solver/0/1", "text2speech-censoring/dur/18446744073709551615/compress"} {
			if got, want := DeriveSeed(seed, label), fnvDeriveSeed(seed, label); got != want {
				t.Errorf("DeriveSeed(%d, %q) = %d, hash/fnv gives %d", seed, label, got, want)
			}
		}
	}
}

func TestLabelHashPartsMatchDeriveSeed(t *testing.T) {
	// Feeding the parts one by one must equal hashing the formatted
	// label, for every split and every decimal width.
	for _, seed := range []int64{0, 7, -3, 1 << 62} {
		for _, inv := range []uint64{0, 1, 9, 10, 12345, math.MaxUint64} {
			label := fmt.Sprintf("wf/%s/%d/%s/%s", "branch", inv, "a", "b")
			got := NewLabelHash(seed).Add("wf").Add("/").Add("branch").Add("/").
				AddUint(inv).Add("/").Add("a").Add("/b").Seed()
			if want := DeriveSeed(seed, label); got != want {
				t.Errorf("seed %d inv %d: parts give %d, DeriveSeed(%q) gives %d", seed, inv, got, label, want)
			}
		}
	}
	if NewLabelHash(5).Seed() != DeriveSeed(5, "") {
		t.Error("empty label: NewLabelHash(seed).Seed() != DeriveSeed(seed, \"\")")
	}
}

func TestSeedReseedsInPlace(t *testing.T) {
	// A reused Rand reseeded with Seed must replay NewRand's stream, even
	// after the previous stream materialized part of its register.
	r := NewRand(1)
	for i := 0; i < 1000; i++ {
		r.Float64()
	}
	for _, seed := range []int64{99, DeriveSeed(3, "x"), 0} {
		r.Seed(seed)
		want := NewRand(seed)
		for i := 0; i < 64; i++ {
			if a, b := r.Float64(), want.Float64(); a != b {
				t.Fatalf("seed %d: draw %d = %v, NewRand gives %v", seed, i, a, b)
			}
		}
	}
}

func TestLabelHashDoesNotAllocate(t *testing.T) {
	var sink int64
	allocs := testing.AllocsPerRun(100, func() {
		sink += NewLabelHash(7).Add("wf").Add("/").AddUint(123456789).Seed()
	})
	if allocs != 0 {
		t.Errorf("LabelHash allocates %v times per derivation", allocs)
	}
	_ = sink
}
