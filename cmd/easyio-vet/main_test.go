package main

import (
	"reflect"
	"testing"

	"github.com/easyio-sim/easyio/internal/analysis"
)

func TestFilterPackages(t *testing.T) {
	const mod = "github.com/easyio-sim/easyio/"
	var pkgs []*analysis.Package
	for _, p := range []string{"cmd/easyio-bench", "internal/bench", "internal/core", "internal/core/sub", "internal/filebench", "internal/pmem", "internal/sim"} {
		pkgs = append(pkgs, &analysis.Package{Path: mod + p})
	}
	cases := []struct {
		patterns []string
		want     []string // import paths below mod; nil means an error
	}{
		{nil, []string{"cmd/easyio-bench", "internal/bench", "internal/core", "internal/core/sub", "internal/filebench", "internal/pmem", "internal/sim"}},
		{[]string{"./..."}, []string{"cmd/easyio-bench", "internal/bench", "internal/core", "internal/core/sub", "internal/filebench", "internal/pmem", "internal/sim"}},
		{[]string{"bench"}, []string{"internal/bench"}},
		{[]string{"internal/core"}, []string{"internal/core", "internal/core/sub"}},
		{[]string{"./internal/core/"}, []string{"internal/core", "internal/core/sub"}},
		{[]string{"internal/core/sub"}, []string{"internal/core/sub"}},
		{[]string{"./internal/..."}, []string{"internal/bench", "internal/core", "internal/core/sub", "internal/filebench", "internal/pmem", "internal/sim"}},
		{[]string{mod + "internal/pmem"}, []string{"internal/pmem"}},
		{[]string{"internal/pmem", "internal/sim"}, []string{"internal/pmem", "internal/sim"}},
		{[]string{"internal/sim", "sim"}, []string{"internal/sim"}},
		{[]string{"nosuchpkg"}, nil},
		{[]string{"internal/pmem", "nosuchpkg"}, nil},
		{[]string{"ench"}, nil},
		{[]string{"core/su"}, nil},
	}
	for _, tc := range cases {
		got, err := filterPackages(pkgs, tc.patterns)
		if tc.want == nil {
			if err == nil {
				t.Errorf("%q: want an error, got %d package(s)", tc.patterns, len(got))
			}
			continue
		}
		if err != nil {
			t.Errorf("%q: %v", tc.patterns, err)
			continue
		}
		var paths []string
		for _, pkg := range got {
			paths = append(paths, pkg.Path[len(mod):])
		}
		if !reflect.DeepEqual(paths, tc.want) {
			t.Errorf("%q: got %v, want %v", tc.patterns, paths, tc.want)
		}
	}
}
