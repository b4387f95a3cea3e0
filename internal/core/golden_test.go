package core

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"blockhead/internal/telemetry/critpath"
)

var update = flag.Bool("update", false, "rewrite golden files")

// TestReportGoldens pins two outputs that neither the full-report golden
// (docs/znsbench_full_output.txt) nor the bench-json baselines cover: the
// -explain transcript of one measured IO, and a counterfactual (-whatif)
// report. The files hold exactly what `znsbench -quick -explain E6:926`
// and `znsbench -quick -whatif zone_reset:0,wp_serial:0 -run E4` print on
// stdout, so a refactor that shifts one tick or one workload draw fails
// here. Regenerate deliberately with `make update-golden`.
func TestReportGoldens(t *testing.T) {
	for _, tc := range []struct {
		golden string
		render func() (string, error)
	}{
		{"explain_E6_926.golden", func() (string, error) {
			return Explain(Config{Quick: true, Seed: 42}, "E6", 926)
		}},
		{"whatif_E4_zone_reset0_wp_serial0.golden", func() (string, error) {
			sc, err := critpath.ParseScenario("zone_reset:0,wp_serial:0")
			if err != nil {
				return "", err
			}
			e, _ := ByID("E4")
			rep, err := e.Run(Config{Quick: true, Seed: 42, Scenario: &sc})
			return rep.Format() + "\n", err
		}},
	} {
		t.Run(tc.golden, func(t *testing.T) {
			out, err := tc.render()
			if err != nil {
				t.Fatal(err)
			}
			path := filepath.Join("testdata", tc.golden)
			if *update {
				if err := os.WriteFile(path, []byte(out), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (run `make update-golden` to create)", err)
			}
			if got := []byte(out); !bytes.Equal(got, want) {
				i := 0
				for i < len(got) && i < len(want) && got[i] == want[i] {
					i++
				}
				lo := max(i-200, 0)
				t.Fatalf("%s drifted at byte %d:\n got: ...%q\nwant: ...%q", tc.golden, i,
					got[lo:min(i+80, len(got))], want[lo:min(i+80, len(want))])
			}
		})
	}
}
