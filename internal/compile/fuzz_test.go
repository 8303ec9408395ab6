package compile_test

import (
	"testing"

	"repro/internal/bench"
	"repro/internal/compile"
)

// FuzzCompile: parsing and compiling arbitrary program and query text,
// with CGEs compiled in parallel and as sequential conjunctions, either
// fails with an error or yields code; it never panics. The seeds are
// the baked-in benchmark programs with their queries.
func FuzzCompile(f *testing.F) {
	for _, name := range bench.Names() {
		b, _ := bench.ByName(name)
		f.Add(b.Source, b.Query)
	}
	f.Fuzz(func(t *testing.T, program, query string) {
		for _, sequential := range []bool{false, true} {
			code, err := compile.Compile(program, query, compile.Options{Sequential: sequential})
			if err == nil && code == nil {
				t.Fatalf("Sequential=%v: no code and no error", sequential)
			}
		}
	})
}
