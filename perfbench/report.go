package main

import (
	"fmt"
	"os"
	"runtime"
	"strings"

	"blockhead/internal/core"
)

// goldenPath is znsbench's committed full output at seed 42, relative to
// the repository root the benchmark runs from.
const goldenPath = "docs/znsbench_full_output.txt"

// reportSeed is the seed the golden report was generated with.
const reportSeed = 42

// reportBench runs every registered experiment at full size and formats
// its report, as `znsbench -shards <nproc>` does. The workload seed only
// permutes the order the experiments run in: each experiment's text must
// still equal its section of the golden output, which also checks that no
// experiment depends on state another one left behind.
type reportBench struct {
	cfg   core.Config
	exps  []core.Experiment // registry order
	order []int
	want  []string // expected Format()+"\n" per experiment
	texts []string
	errs  []error

	sExp            []int32
	sFormat, sRound int32
}

func newReport(seed int64, small bool, tr *tracer) (bench, error) {
	if err := core.CheckRegistry(); err != nil {
		return nil, err
	}
	exps := core.All()
	b := &reportBench{
		cfg:     core.Config{Seed: reportSeed, Shards: runtime.NumCPU()},
		exps:    exps,
		order:   newRNG(seed).perm(len(exps)),
		texts:   make([]string, len(exps)),
		sFormat: tr.id("core.format"),
		sRound:  tr.id("round"),
	}
	for _, e := range exps {
		b.sExp = append(b.sExp, tr.id("core.exp."+e.ID))
	}
	// Warm up with a quick-size report, so the first measured round is not
	// charged for faulting code in and growing the heap. Small runs measure
	// quick-size reports and check them against this one.
	warm := b.cfg
	warm.Quick = true
	b.cfg, b.want = warm, nil
	b.round(nil)
	if len(b.errs) > 0 {
		return nil, fmt.Errorf("warm-up report: %w", b.errs[0])
	}
	if small {
		for _, t := range b.texts {
			b.want = append(b.want, t+"\n")
		}
		return b, nil
	}
	b.cfg.Quick = false
	want, err := goldenSections(exps)
	if err != nil {
		return nil, err
	}
	b.want = want
	return b, nil
}

// goldenSections splits the golden output into one section per
// experiment, in registry order.
func goldenSections(exps []core.Experiment) ([]string, error) {
	raw, err := os.ReadFile(goldenPath)
	if err != nil {
		return nil, err
	}
	text := string(raw)
	for i := 0; i < 3; i++ { // the header comment
		nl := strings.IndexByte(text, '\n')
		if nl < 0 {
			return nil, fmt.Errorf("%s: short header", goldenPath)
		}
		text = text[nl+1:]
	}
	starts := make([]int, len(exps)+1)
	for i, e := range exps {
		hdr := "=== " + e.ID + ": "
		switch at := strings.Index(text, "\n"+hdr); {
		case i == 0 && strings.HasPrefix(text, hdr):
			starts[i] = 0
		case i > 0 && at >= 0:
			starts[i] = at + 1
		default:
			return nil, fmt.Errorf("%s: no section for %s in registry order", goldenPath, e.ID)
		}
		if i > 0 && starts[i] <= starts[i-1] {
			return nil, fmt.Errorf("%s: section %s out of registry order", goldenPath, e.ID)
		}
	}
	starts[len(exps)] = len(text)
	out := make([]string, len(exps))
	for i := range exps {
		out[i] = text[starts[i]:starts[i+1]]
	}
	return out, nil
}

func (b *reportBench) round(tr *tracer) int {
	b.errs = b.errs[:0]
	root := tr.begin(b.sRound)
	for _, i := range b.order {
		s := tr.beginIO(b.sExp[i])
		rep, err := b.exps[i].Run(b.cfg)
		tr.end(s)
		if err != nil {
			b.errs = append(b.errs, fmt.Errorf("%s: %w", b.exps[i].ID, err))
			b.texts[i] = ""
			continue
		}
		f := tr.begin(b.sFormat)
		b.texts[i] = rep.Format()
		tr.end(f)
	}
	tr.end(root)
	return len(b.exps)
}

func (b *reportBench) check() int {
	failed := len(b.errs)
	for _, err := range b.errs {
		fmt.Printf("check failed: %v\n", err)
	}
	for i, t := range b.texts {
		if t != "" && t+"\n" != b.want[i] {
			fmt.Printf("check failed: %s report differs from %s\n", b.exps[i].ID, goldenPath)
			failed++
		}
	}
	return failed
}

func (b *reportBench) digest() string { return "" }
func (b *reportBench) markLayers()    {}
func (b *reportBench) accuracy() []string {
	return nil
}

func (b *reportBench) layers(tr *tracer, rounds int) map[string]float64 {
	r := float64(rounds)
	m := map[string]float64{"core.format_ms": ms(tr.stat("core.format").ns) / r}
	for _, e := range b.exps {
		m["core.exp."+e.ID+"_ms"] = ms(tr.stat("core.exp."+e.ID).ns) / r
	}
	return m
}
