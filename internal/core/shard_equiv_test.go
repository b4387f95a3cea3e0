package core

import (
	"encoding/json"
	"strings"
	"testing"
)

// poolWidths is the equivalence table's -shards axis: one worker, two
// intermediate widths, and one above the largest part count any experiment
// schedules (E13 under a fault profile runs 2 profiles × 2 stacks), so the
// clamp to the part count is exercised too.
var poolWidths = []int{1, 2, 4, 5}

// runReportAt runs one experiment at a pool width and returns the rendered
// report — the byte-exact artifact the whole battery compares.
func runReportAt(t *testing.T, id string, seed int64, shards int) string {
	t.Helper()
	e, ok := ByID(id)
	if !ok {
		t.Fatalf("experiment %s not registered", id)
	}
	rep, err := e.Run(Config{Quick: true, Seed: seed, Shards: shards})
	if err != nil {
		t.Fatalf("%s shards=%d: %v", id, shards, err)
	}
	return rep.Format()
}

// diffAt reports the first differing byte with context, so a determinism
// regression names the exact report section that drifted.
func diffAt(t *testing.T, label, got, want string) {
	t.Helper()
	n := len(got)
	if len(want) < n {
		n = len(want)
	}
	for i := 0; i < n; i++ {
		if got[i] != want[i] {
			lo := i - 100
			if lo < 0 {
				lo = 0
			}
			hi := i + 100
			if hi > n {
				hi = n
			}
			t.Errorf("%s: first diff at byte %d:\n  got  ...%q\n  want ...%q",
				label, i, got[lo:hi], want[lo:hi])
			return
		}
	}
	t.Errorf("%s: reports differ in length: %d vs %d bytes", label, len(got), len(want))
}

// TestShardEquivalence is the gate for the part pool: for every registered
// experiment, the full rendered report is byte-identical at every pool
// width, same seed. Everything the reports embed rides along — latency
// tables, attribution breakdowns, critical paths, exemplar sequence numbers
// and -explain hints, blame matrices with their exact conservation lines,
// device audits, and oracle verdicts.
func TestShardEquivalence(t *testing.T) {
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			ref := runReportAt(t, e.ID, 42, poolWidths[0])
			for _, n := range poolWidths[1:] {
				if got := runReportAt(t, e.ID, 42, n); got != ref {
					diffAt(t, e.ID+" shards="+itoa(n), got, ref)
				}
			}
		})
	}
}

// TestBenchJSONPoolWidth pins the -bench-json entries of E4 and E6 — the
// committed BENCH_baseline.json run — byte-for-byte across pool widths,
// max_us fields included (benchdiff does not compare them).
func TestBenchJSONPoolWidth(t *testing.T) {
	benchAt := func(shards int) string {
		var out []byte
		for _, id := range []string{"E4", "E6"} {
			e, _ := ByID(id)
			rep, err := e.Run(Config{Seed: 42, Shards: shards})
			if err != nil {
				t.Fatalf("%s shards=%d: %v", id, shards, err)
			}
			b, err := json.Marshal(rep.Bench)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, b...)
		}
		return string(out)
	}
	if one, four := benchAt(1), benchAt(4); one != four {
		diffAt(t, "E4+E6 bench entries shards=4", four, one)
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b [8]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}

// TestShardMetamorphic checks shard-count invariance of the semantic
// properties the reports carry, across seeds the byte-identity gate never
// sees: for 3 seeds and both stacks of the blame (E14) and fault-oracle
// (E13) experiments, the parallel run must preserve the exact
// blame-conservation line, report zero oracle violations, and stay
// byte-identical to its serial reference.
func TestShardMetamorphic(t *testing.T) {
	for _, seed := range []int64{7, 42, 99} {
		for _, id := range []string{"E13", "E14"} {
			serial := runReportAt(t, id, seed, 1)
			parallel := runReportAt(t, id, seed, 4)
			label := id + "/seed=" + itoa(int(seed))
			if parallel != serial {
				diffAt(t, label, parallel, serial)
				continue
			}
			if strings.Contains(parallel, "WARNING") {
				t.Errorf("%s: report carries a WARNING (broken invariant):\n%s", label, parallel)
			}
			switch id {
			case "E13":
				// Oracle verdicts: the violation column renders 0 for every
				// (stack, profile) row and no violation note appears.
				if strings.Contains(parallel, "ORACLE VIOLATION") {
					t.Errorf("%s: oracle violations under sharding", label)
				}
			case "E14":
				// Blame conservation (sum(blame) == sum(stalls), exact) must
				// hold in both stacks' tenant sections.
				if n := strings.Count(parallel, "blame conservation:"); n != 2 {
					t.Errorf("%s: %d exact blame-conservation lines, want 2", label, n)
				}
			}
		}
	}
}
