package core

import (
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"trident/internal/ir"
	"trident/internal/irgen"
	"trident/internal/profile"
	"trident/internal/progs"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/predictions.golden from the current model")

// goldenIRGenSeeds are the random programs pinned alongside the kernels.
var goldenIRGenSeeds = []uint64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}

// goldenRepeatedEdges passes one value to the same parameter from two call
// sites and returns one value from two rets, so the def-use graph holds
// identical repeated edges (the kernels and irgen programs have none).
const goldenRepeatedEdges = `
module "repeat"
global @out i64 x 8
func @scale(%x i64) i64 {
entry:
  %m = mul %x, i64 3
  %c = icmp slt %m, i64 40
  condbr %c, small, big
small:
  ret %m
big:
  ret %m
}
func @main() void {
entry:
  br loop
loop:
  %i = phi i64 [i64 0, entry], [%inc, loop]
  %acc = phi i64 [i64 0, entry], [%acc2, loop]
  %v = add %i, i64 5
  %a = call @scale(%v)
  %b = call @scale(%v)
  %s = add %a, %b
  %acc2 = add %acc, %s
  %p = gep i64, @out, %i
  store %s, %p
  %inc = add %i, i64 1
  %lc = icmp slt %inc, i64 8
  condbr %lc, loop, done
done:
  print %acc2
  ret
}
`

// freshModel profiles a freshly built module and returns its full model.
func freshModel(t testing.TB, build func() *ir.Module) *Model {
	t.Helper()
	prof, err := profile.Collect(build(), profile.Options{})
	if err != nil {
		t.Fatalf("profile: %v", err)
	}
	return New(prof, TridentConfig())
}

// TestModelDeterministic builds every kernel's model three times from
// fresh profiles and requires bit-identical overall predictions: every
// float sum in the model runs in a fixed order, never in map order.
func TestModelDeterministic(t *testing.T) {
	for _, p := range progs.Extended() {
		var want uint64
		for i := 0; i < 3; i++ {
			got := math.Float64bits(freshModel(t, p.Build).OverallSDC(0, 0).SDC)
			if i == 0 {
				want = got
			} else if got != want {
				t.Errorf("%s: build %d predicts %v, build 0 predicted %v",
					p.Name, i, math.Float64frombits(got), math.Float64frombits(want))
			}
		}
	}
}

// goldenPredictions renders one program's predictions as exact float64
// bits: the overall SDC probability, then InstrSDC and InstrCrash of every
// executed instruction in module instruction order. The decimal values
// after the bits are for reading only.
func goldenPredictions(name string, model *Model) string {
	var sb strings.Builder
	overall := model.OverallSDC(0, 0).SDC
	fmt.Fprintf(&sb, "%s overall %016x %.6g\n", name, math.Float64bits(overall), overall)
	idx := 0
	model.prof.Module.Instrs(func(in *ir.Instr) {
		defer func() { idx++ }()
		if model.prof.ExecCount[in] == 0 {
			return
		}
		sdc, crash := model.InstrSDC(in), model.InstrCrash(in)
		fmt.Fprintf(&sb, "%s %d %s %016x %016x %.6g %.6g\n", name, idx, in.Pos(),
			math.Float64bits(sdc), math.Float64bits(crash), sdc, crash)
	})
	return sb.String()
}

// TestGoldenPredictions compares the model's predictions on the kernels
// and a random-program corpus bit for bit against the committed table.
// Regenerate deliberately with
//
//	go test ./internal/core -run TestGoldenPredictions -update
//
// only when a change is meant to alter predictions. The table is pinned on
// amd64: architectures where the Go compiler fuses x*y+z into one rounding
// (arm64, ppc64le, s390x, riscv64) legitimately differ in the last bits.
func TestGoldenPredictions(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("golden prediction bits are pinned on amd64")
	}
	var sb strings.Builder
	for _, p := range progs.Extended() {
		sb.WriteString(goldenPredictions(p.Name, freshModel(t, p.Build)))
	}
	for _, seed := range goldenIRGenSeeds {
		build := func() *ir.Module { return irgen.Generate(irgen.Config{Seed: seed}) }
		sb.WriteString(goldenPredictions(fmt.Sprintf("irgen-%d", seed), freshModel(t, build)))
	}
	parsed := func() *ir.Module {
		m, err := ir.Parse(goldenRepeatedEdges)
		if err != nil {
			t.Fatalf("parse: %v", err)
		}
		return m
	}
	sb.WriteString(goldenPredictions("repeat", freshModel(t, parsed)))
	got := sb.String()

	path := filepath.Join("testdata", "predictions.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	wantLines := strings.Split(string(raw), "\n")
	gotLines := strings.Split(got, "\n")
	for i := 0; i < len(wantLines) || i < len(gotLines); i++ {
		var w, g string
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if i < len(gotLines) {
			g = gotLines[i]
		}
		if w != g {
			t.Fatalf("line %d differs:\n got  %q\n want %q", i+1, g, w)
		}
	}
}
