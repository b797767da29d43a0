package harness

import (
	"runtime"
	"strings"
	"testing"

	"repro/internal/obs"
)

// TestZooDifferentialAcrossShards extends the byte-identity requirement
// to the predictor zoo: the full rendered zoo output — every seed
// benchmark × every predictor kind × conventional and allocated
// indexing — must be byte-identical between the strictly serial suite
// and one running with GOMAXPROCS benchmark workers. CI runs this under
// -race, so the zoo sims' fan-out is exercised for data races at the
// same time. The sims themselves are sequential per benchmark (one
// MultiSink replay); what this protects is the benchmark-level
// parallelism around them.
func TestZooDifferentialAcrossShards(t *testing.T) {
	render := func(workers int) string {
		s := NewSuite(Config{Scale: 0.05, Workers: workers, Metrics: obs.New(obs.NewRegistry())})
		var b strings.Builder
		if err := RunZoo(s, &b, false); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	serial := render(1)
	if !strings.Contains(serial, "[tage]") || !strings.Contains(serial, "[perceptron]") {
		t.Fatalf("zoo output incomplete:\n%.1000s", serial)
	}
	max := runtime.GOMAXPROCS(0)
	if got := render(max); got != serial {
		t.Errorf("zoo output differs between serial and workers=%d\n--- serial ---\n%.3000s\n--- parallel ---\n%.3000s",
			max, serial, got)
	}
}
