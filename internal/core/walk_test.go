package core

import (
	"math"
	"testing"

	"trident/internal/ir"
	"trident/internal/profile"
)

// profiledModel parses src, profiles one execution and builds a model.
func profiledModel(t testing.TB, src string, cfg Config) *Model {
	t.Helper()
	m, err := ir.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	prof, err := profile.Collect(m, profile.Options{})
	if err != nil {
		t.Fatalf("profile: %v", err)
	}
	return New(prof, cfg)
}

func instrByName(t testing.TB, m *ir.Module, name string) *ir.Instr {
	t.Helper()
	var found *ir.Instr
	m.Instrs(func(in *ir.Instr) {
		if in.Name == name {
			found = in
		}
	})
	if found == nil {
		t.Fatalf("register %%%s not found", name)
	}
	return found
}

func instrByOp(t testing.TB, m *ir.Module, block string, op ir.Opcode) *ir.Instr {
	t.Helper()
	for _, in := range m.Func("main").Block(block).Instrs {
		if in.Op == op {
			return in
		}
	}
	t.Fatalf("no %s in %s", op, block)
	return nil
}

// TestCmpSignBitPropagation reproduces the paper's Figure 2b: for
// "cmp sgt %v, 0" with a positive profiled value, only the sign bit flips
// the branch, so the propagation probability is 1/32 ≈ 0.03.
func TestCmpSignBitPropagation(t *testing.T) {
	model := profiledModel(t, `
module "fig2b"
global @g i32 x 1 = [4]
func @main() void {
entry:
  %v0 = load i32, @g
  %v = add %v0, i32 1
  %c = icmp sgt %v, i32 0
  condbr %c, t, f
t:
  br f
f:
  ret
}
`, TridentConfig())
	cmp := instrByName(t, model.prof.Module, "c")
	// Profiled sample: lhs = 5, rhs = 0. Flipping only the sign bit of 5
	// changes sgt(5, 0).
	p := model.empiricalFlipProb(cmp, 0)
	if math.Abs(p-1.0/32) > 1e-9 {
		t.Errorf("cmp flip probability = %v, want 1/32 (paper Fig. 2b)", p)
	}

	// The full chain from %v: propagation 1 (add) then 1/32 at the cmp,
	// reaching the branch.
	e := model.walkFrom(instrByName(t, model.prof.Module, "v"), walkUniform)
	br := model.prof.Module.Func("main").Block("entry").Terminator()
	if math.Abs(e.branch(br)-1.0/32) > 1e-9 {
		t.Errorf("branch flip prob = %v, want 1/32", e.branch(br))
	}
	if e.output != 0 || len(e.stores) != 0 {
		t.Error("chain should end only at the branch")
	}
}

func TestWalkDirectOutput(t *testing.T) {
	model := profiledModel(t, `
module "direct"
func @main() void {
entry:
  %a = add i64 1, i64 2
  %b = mul %a, i64 3
  print %b
  ret
}
`, TridentConfig())
	e := model.walkFrom(instrByName(t, model.prof.Module, "a"), walkUniform)
	if math.Abs(e.output-1) > 1e-9 {
		t.Errorf("output prob = %v, want 1", e.output)
	}
}

func TestWalkLogicalMasking(t *testing.T) {
	// %m = and %x, 0xFF: only 8 of 64 bits of %x survive.
	model := profiledModel(t, `
module "mask"
func @main() void {
entry:
  %x = add i64 12345, i64 0
  %m = and %x, i64 255
  print %m
  ret
}
`, TridentConfig())
	e := model.walkFrom(instrByName(t, model.prof.Module, "x"), walkUniform)
	if math.Abs(e.output-8.0/64) > 1e-9 {
		t.Errorf("output prob = %v, want 0.125 (and-masking)", e.output)
	}
	// xor never masks.
	model2 := profiledModel(t, `
module "mask2"
func @main() void {
entry:
  %x = add i64 12345, i64 0
  %m = xor %x, i64 255
  print %m
  ret
}
`, TridentConfig())
	e2 := model2.walkFrom(instrByName(t, model2.prof.Module, "x"), walkUniform)
	if math.Abs(e2.output-1) > 1e-9 {
		t.Errorf("xor output prob = %v, want 1", e2.output)
	}
}

func TestWalkTruncMasking(t *testing.T) {
	model := profiledModel(t, `
module "trunc"
func @main() void {
entry:
  %x = add i64 7, i64 0
  %tr = trunc %x to i16
  print %tr
  ret
}
`, TridentConfig())
	e := model.walkFrom(instrByName(t, model.prof.Module, "x"), walkUniform)
	if math.Abs(e.output-16.0/64) > 1e-9 {
		t.Errorf("output prob = %v, want 0.25 (trunc)", e.output)
	}
}

func TestWalkShiftMasking(t *testing.T) {
	// lshr by 56 leaves 8 live bit positions out of 64.
	model := profiledModel(t, `
module "shift"
func @main() void {
entry:
  %x = add i64 -1, i64 0
  %s = lshr %x, i64 56
  print %s
  ret
}
`, TridentConfig())
	e := model.walkFrom(instrByName(t, model.prof.Module, "x"), walkUniform)
	if math.Abs(e.output-8.0/64) > 1e-9 {
		t.Errorf("output prob = %v, want 0.125 (lshr 56)", e.output)
	}
}

func TestWalkEndsAtStore(t *testing.T) {
	model := profiledModel(t, `
module "tostore"
global @g i64 x 1
func @main() void {
entry:
  %x = add i64 5, i64 0
  store %x, @g
  %v = load i64, @g
  print %v
  ret
}
`, TridentConfig())
	e := model.walkFrom(instrByName(t, model.prof.Module, "x"), walkUniform)
	store := instrByOp(t, model.prof.Module, "entry", ir.OpStore)
	if math.Abs(e.store(store).total()-1) > 1e-9 {
		t.Errorf("store corruption prob = %v, want 1", e.store(store).total())
	}
	if e.output != 0 {
		t.Errorf("direct output = %v, want 0 (print feeds from memory)", e.output)
	}
}

func TestWalkAddressCorruptionCrash(t *testing.T) {
	model := profiledModel(t, `
module "addr"
global @g i64 x 8 = [1, 2, 3, 4, 5, 6, 7, 8]
func @main() void {
entry:
  %i = add i64 3, i64 0
  %p = gep i64, @g, %i
  %v = load i64, %p
  print %v
  ret
}
`, TridentConfig())
	e := model.walkFrom(instrByName(t, model.prof.Module, "i"), walkUniform)
	if e.crash < 0.5 {
		t.Errorf("crash prob = %v, want high (most address bits trap)", e.crash)
	}
	// The surviving share propagates through the load to output.
	wantOut := 1 - e.crash
	if math.Abs(e.output-wantOut) > 1e-9 {
		t.Errorf("output prob = %v, want %v (1 - crash)", e.output, wantOut)
	}
}

func TestWalkStoreAddressCrashOnly(t *testing.T) {
	model := profiledModel(t, `
module "staddr"
global @g i64 x 8
func @main() void {
entry:
  %i = add i64 3, i64 0
  %p = gep i64, @g, %i
  store i64 42, %p
  %q = gep i64, @g, i64 3
  %v = load i64, %q
  print %v
  ret
}
`, TridentConfig())
	e := model.walkFrom(instrByName(t, model.prof.Module, "i"), walkUniform)
	if e.crash < 0.5 {
		t.Errorf("crash prob = %v, want high", e.crash)
	}
	// A corrupted store address never counts as a corrupted stored value.
	store := instrByOp(t, model.prof.Module, "entry", ir.OpStore)
	if e.store(store).total() != 0 {
		t.Errorf("store value corruption = %v, want 0 for address corruption", e.store(store).total())
	}
}

func TestWalkFanOutCapsAtOne(t *testing.T) {
	model := profiledModel(t, `
module "fan"
func @main() void {
entry:
  %x = add i64 1, i64 0
  %a = add %x, i64 1
  %b = add %x, i64 2
  %c = add %a, %b
  print %c
  ret
}
`, TridentConfig())
	e := model.walkFrom(instrByName(t, model.prof.Module, "x"), walkUniform)
	if e.output > 1 {
		t.Errorf("output prob = %v, must be capped at 1", e.output)
	}
}

func TestWalkThroughPhiCycle(t *testing.T) {
	// An accumulator: the corruption persists through the loop-carried phi
	// and reaches the final print with probability 1.
	model := profiledModel(t, `
module "acc"
func @main() void {
entry:
  br loop
loop:
  %i = phi i64 [i64 0, entry], [%inc, loop]
  %acc = phi i64 [i64 0, entry], [%sum, loop]
  %sum = add %acc, %i
  %inc = add %i, i64 1
  %c = icmp slt %inc, i64 8
  condbr %c, loop, done
done:
  print %sum
  ret
}
`, TridentConfig())
	e := model.walkFrom(instrByName(t, model.prof.Module, "sum"), walkUniform)
	if math.Abs(e.output-1) > 1e-6 {
		t.Errorf("accumulator output prob = %v, want 1", e.output)
	}
}

func TestWalkInterprocedural(t *testing.T) {
	model := profiledModel(t, `
module "inter"
func @double(%x i64) i64 {
entry:
  %r = add %x, %x
  ret %r
}
func @main() void {
entry:
  %a = add i64 21, i64 0
  %d = call @double(%a)
  print %d
  ret
}
`, TridentConfig())
	// Corruption in %a flows through the call into %r and back to print.
	e := model.walkFrom(instrByName(t, model.prof.Module, "a"), walkUniform)
	if math.Abs(e.output-1) > 1e-9 {
		t.Errorf("interprocedural output prob = %v, want 1", e.output)
	}
	// Corruption in the callee's %r flows back to the caller's print.
	e2 := model.walkFrom(instrByName(t, model.prof.Module, "r"), walkUniform)
	if math.Abs(e2.output-1) > 1e-9 {
		t.Errorf("return-path output prob = %v, want 1", e2.output)
	}
}

func TestWalkConditionalConsumerWeighting(t *testing.T) {
	// The print executes in 4 of 16 iterations; corruption of a value
	// computed every iteration reaches output with probability ~0.25
	// (the NULL-node weighting of §IV-E).
	model := profiledModel(t, `
module "cond"
func @main() void {
entry:
  br loop
loop:
  %i = phi i64 [i64 0, entry], [%inc, join]
  %v = mul %i, i64 5
  %m = and %i, i64 3
  %c = icmp eq %m, i64 0
  condbr %c, emit, join
emit:
  print %v
  br join
join:
  %inc = add %i, i64 1
  %lc = icmp slt %inc, i64 16
  condbr %lc, loop, done
done:
  ret
}
`, TridentConfig())
	e := model.walkFrom(instrByName(t, model.prof.Module, "v"), walkUniform)
	if math.Abs(e.output-0.25) > 1e-9 {
		t.Errorf("output prob = %v, want 0.25 (print executes 1/4 of the time)", e.output)
	}
}

func TestWalkNeverExecutedInstr(t *testing.T) {
	model := profiledModel(t, `
module "dead"
global @g i64 x 1 = [0]
func @main() void {
entry:
  %v = load i64, @g
  %c = icmp sgt %v, i64 10
  condbr %c, cold, done
cold:
  %x = add %v, i64 1
  print %x
  br done
done:
  ret
}
`, TridentConfig())
	e := model.walkFrom(instrByName(t, model.prof.Module, "x"), walkUniform)
	if e.output != 0 || len(e.branches) != 0 {
		t.Error("never-executed instruction should have empty ends")
	}
}

func TestWalkCaching(t *testing.T) {
	model := profiledModel(t, `
module "cache"
func @main() void {
entry:
  %a = add i64 1, i64 1
  print %a
  ret
}
`, TridentConfig())
	a := instrByName(t, model.prof.Module, "a")
	if model.walkFrom(a, walkUniform) != model.walkFrom(a, walkUniform) {
		t.Error("walks should be cached")
	}
}

func TestFPOutputMask(t *testing.T) {
	// Paper: Float with %g precision 2 -> 48.66%.
	got := fpOutputMask(ir.F32, ir.FormatG2)
	if math.Abs(got-0.4866) > 0.001 {
		t.Errorf("f32 g2 mask = %v, want ~0.4866 (paper §IV-E)", got)
	}
	if fpOutputMask(ir.F32, ir.FormatDefault) != 1 {
		t.Error("default format must not mask")
	}
	if fpOutputMask(ir.I32, ir.FormatG2) != 1 {
		t.Error("integers must not be FP-masked")
	}
	f64mask := fpOutputMask(ir.F64, ir.FormatG2)
	if f64mask <= 0 || f64mask >= 1 {
		t.Errorf("f64 g2 mask = %v, want in (0, 1)", f64mask)
	}
}

// store returns the banded corruption probability of one store terminal
// (zero when the walk does not reach it).
func (e *ends) store(in *ir.Instr) bandPair {
	for _, se := range e.stores {
		if se.in == in {
			return se.p
		}
	}
	return bandPair{}
}

// branch returns the flip probability of one branch terminal (zero when
// the walk does not reach it).
func (e *ends) branch(in *ir.Instr) float64 {
	for _, be := range e.branches {
		if be.in == in {
			return be.p
		}
	}
	return 0
}
