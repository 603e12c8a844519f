package bench

import (
	"io"

	"github.com/easyio-sim/easyio/internal/apps"
	"github.com/easyio-sim/easyio/internal/crashmonkey"
	"github.com/easyio-sim/easyio/internal/stats"
)

// Table1 prints the real-world application configuration (read size,
// write size, R/W ratio) as in the paper.
func Table1(w io.Writer) {
	tb := stats.NewTable("Application", "Avg. Read Size", "Avg. Write Size", "R/W Ratio")
	row := func(name string, r, wr int, ratio string) {
		tb.AddRow(name, sizeLabel(r), wrLabel(wr), ratio)
	}
	for _, s := range apps.Specs() {
		ratio := "1:1"
		if s.WriteSize == 0 {
			ratio = "1:0"
		}
		row(s.Name, s.ReadSize, s.WriteSize, ratio)
	}
	row("Fileserver", 1<<20, 1040<<10, "1:2")
	row("Webserver", 256<<10, 16<<10, "10:1")
	fpf(w, "Table 1 — real-world application configuration\n%s\n", tb)
}

func wrLabel(n int) string {
	if n == 0 {
		return "0KB"
	}
	return sizeLabel(n)
}

// Table2 runs the CrashMonkey suite: four workloads, points crash states
// each (the paper uses 1000), sampled from seed.
func Table2(w io.Writer, points int, seed uint64) bool {
	tb := stats.NewTable("Workload", "Description", "Total Crash Points", "Total Passed")
	allPass := true
	wls := crashmonkey.All()
	type t2 struct {
		rep *crashmonkey.Report
		err error
	}
	res := make([]t2, len(wls))
	runJobs(len(wls), func(i int) {
		res[i].rep, res[i].err = crashmonkey.Test(wls[i], crashmonkey.Config{TargetPoints: points, Seed: seed})
	})
	for i, wl := range wls {
		rep, err := res[i].rep, res[i].err
		if err != nil {
			fpf(w, "%s: ERROR %v\n", wl.Name, err)
			allPass = false
			continue
		}
		tb.AddRow(rep.Name, wl.Description, rep.CrashPoints, rep.Passed)
		if rep.Failed() > 0 {
			allPass = false
			for i, f := range rep.Failures {
				if i >= 3 {
					break
				}
				fpf(w, "FAILURE %s: %s\n", rep.Name, f)
			}
		}
	}
	fpf(w, "Table 2 — crash consistency with CrashMonkey\n%s\n", tb)
	return allPass
}
