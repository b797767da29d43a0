package classify

import (
	"testing"
	"testing/quick"

	"repro/internal/graph"
	"repro/internal/profile"
)

func TestThresholdsOf(t *testing.T) {
	th := Default()
	cases := []struct {
		exec, taken uint64
		want        Class
	}{
		{1000, 1000, BiasedTaken},
		{1000, 995, BiasedTaken},
		{1000, 990, Mixed}, // exactly 99% is not "greater than 99%"
		{1000, 500, Mixed},
		{1000, 10, Mixed}, // exactly 1% is not "less than 1%"
		{1000, 5, BiasedNotTaken},
		{1000, 0, BiasedNotTaken},
		{0, 0, Mixed}, // unexecuted branches stay mixed
	}
	for _, c := range cases {
		if got := th.Of(c.exec, c.taken); got != c.want {
			t.Errorf("Of(%d, %d) = %v, want %v", c.exec, c.taken, got, c.want)
		}
	}
}

func TestClassString(t *testing.T) {
	if Mixed.String() != "mixed" || BiasedTaken.String() != "biased-taken" ||
		BiasedNotTaken.String() != "biased-not-taken" {
		t.Fatal("class names wrong")
	}
	if Class(9).String() != "unknown" {
		t.Fatal("unknown class name wrong")
	}
}

func TestCustomThresholds(t *testing.T) {
	th := Thresholds{Taken: 0.9, NotTaken: 0.1}
	if th.Of(100, 95) != BiasedTaken {
		t.Fatal("custom taken threshold ignored")
	}
	if th.Of(100, 5) != BiasedNotTaken {
		t.Fatal("custom not-taken threshold ignored")
	}
}

// profileWith builds a profile with the given per-branch (exec, taken).
func profileWith(counts ...[2]uint64) *profile.Profile {
	p := &profile.Profile{
		Benchmark: "t",
		Pairs:     graph.FromPairs(len(counts), nil),
	}
	for i, c := range counts {
		p.PCs = append(p.PCs, uint64(i+1)*4)
		p.Exec = append(p.Exec, c[0])
		p.Taken = append(p.Taken, c[1])
	}
	return p
}

func TestClassifyProfile(t *testing.T) {
	p := profileWith(
		[2]uint64{1000, 1000}, // biased taken
		[2]uint64{1000, 0},    // biased not-taken
		[2]uint64{1000, 500},  // mixed
		[2]uint64{1000, 999},  // biased taken
	)
	c := Classify(p, Default())
	want := []Class{BiasedTaken, BiasedNotTaken, Mixed, BiasedTaken}
	for i, w := range want {
		if c.Classes[i] != w {
			t.Errorf("branch %d: %v, want %v", i, c.Classes[i], w)
		}
	}
	m, bt, bnt := c.Counts()
	if m != 1 || bt != 2 || bnt != 1 {
		t.Fatalf("counts %d/%d/%d", m, bt, bnt)
	}
}

func TestSameBiasedClass(t *testing.T) {
	p := profileWith(
		[2]uint64{1000, 1000},
		[2]uint64{1000, 998},
		[2]uint64{1000, 0},
		[2]uint64{1000, 500},
	)
	c := Classify(p, Default())
	if !c.SameBiasedClass(0, 1) {
		t.Error("two biased-taken branches not same class")
	}
	if c.SameBiasedClass(0, 2) {
		t.Error("taken and not-taken reported same class")
	}
	if c.SameBiasedClass(0, 3) || c.SameBiasedClass(3, 3) {
		t.Error("mixed branch reported biased")
	}
}

func TestBiasedDynamicFraction(t *testing.T) {
	p := profileWith(
		[2]uint64{900, 900}, // biased, 900 execs
		[2]uint64{100, 50},  // mixed, 100 execs
	)
	c := Classify(p, Default())
	if f := c.BiasedDynamicFraction(p); f != 0.9 {
		t.Fatalf("biased fraction %v, want 0.9", f)
	}
	empty := profileWith()
	if f := Classify(empty, Default()).BiasedDynamicFraction(empty); f != 0 {
		t.Fatalf("empty fraction %v", f)
	}
}

func TestClassifyPropertyConsistent(t *testing.T) {
	th := Default()
	f := func(exec uint32, takenFrac uint8) bool {
		e := uint64(exec)
		if e == 0 {
			return th.Of(0, 0) == Mixed
		}
		taken := e * uint64(takenFrac) / 255
		c := th.Of(e, taken)
		rate := float64(taken) / float64(e)
		switch {
		case rate > 0.99:
			return c == BiasedTaken
		case rate < 0.01:
			return c == BiasedNotTaken
		default:
			return c == Mixed
		}
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
