//! The design registry: every case-study design, described uniformly
//! enough that the differential engine can drive all comparable layers
//! without per-design code. Adding an entry to [`all_designs`] enrolls the
//! design in every conformance check (library, integration test, and CLI).

use chicala_bigint::BigInt;
use chicala_chisel::Module;
use chicala_lowlevel::{
    add_words, constant_word, extend, ge_words, mux_word, nets_equal, sub_words, BitKit, Net,
    Netlist, UnrolledState, Word,
};
use std::collections::BTreeMap;

/// One input port of a design, with generation constraints.
#[derive(Clone, Copy, Debug)]
pub struct InputSpec {
    /// Port name (e.g. `io_a`).
    pub name: &'static str,
    /// Must be non-zero (divisors).
    pub nonzero: bool,
}

/// Register and output values observed after the design's full run.
#[derive(Clone, Debug)]
pub struct FinalState {
    /// Register values (unsigned views) after the last cycle.
    pub regs: BTreeMap<String, BigInt>,
    /// Output values of the last cycle.
    pub outputs: BTreeMap<String, BigInt>,
}

/// A pure mathematical specification: given the elaboration width and the
/// (width-masked) inputs, decide whether the final state is the correct
/// answer. Returns a divergence description on failure.
pub type SpecFn = fn(u64, &BTreeMap<String, BigInt>, &FinalState) -> Result<(), String>;

/// Everything a gate-level golden model sees: the elaboration width, the
/// fresh symbolic input words, and the design's symbolic state after its
/// full latency.
pub struct GateEnv<'a> {
    /// Elaboration width (`len`).
    pub width: u64,
    /// Fresh symbolic input words, keyed by port name.
    pub inputs: &'a BTreeMap<String, Word<Net>>,
    /// Register and output words after `latency` symbolic cycles.
    pub state: &'a UnrolledState<Net>,
    /// Golden-cone words noted by the spec builder, keyed by the design
    /// signal each is compared against. Counterexample decoding reads
    /// these to render the golden side of the miter next to the design's
    /// (see `capture::miter_trace`).
    pub golden: std::cell::RefCell<BTreeMap<String, Word<Net>>>,
}

impl<'a> GateEnv<'a> {
    /// A fresh environment with an empty golden notebook.
    pub fn new(
        width: u64,
        inputs: &'a BTreeMap<String, Word<Net>>,
        state: &'a UnrolledState<Net>,
    ) -> GateEnv<'a> {
        GateEnv { width, inputs, state, golden: Default::default() }
    }

    /// Notes `word` as the golden value for design signal `name`.
    pub fn note_golden(&self, name: &str, word: &Word<Net>) {
        self.golden.borrow_mut().insert(name.to_string(), word.clone());
    }
}

/// Builds the formal gate-level obligation for one design: a single edge
/// that must be constant-true over all input assignments at this width.
///
/// Golden models mirror the design's register recurrence *structurally*
/// (same adder/comparator/mux shapes, built from the public blaster
/// helpers), so the AIG kit's unit rules, rewriting and structural hashing
/// collapse the miter as it is built: every registry property is the
/// constant-true edge, and no engine runs on it even at widths where a
/// monolithic BDD blows up.
pub type GateSpecFn = fn(&mut Netlist, &GateEnv) -> Net;

/// A registered design: everything the engine needs to drive the Chisel
/// interpreter, the generated sequential program, the gate-level baseline,
/// and the mathematical spec in lockstep.
#[derive(Clone, Copy)]
pub struct Design {
    /// Registry key (CLI `--design` argument).
    pub name: &'static str,
    /// Builds the Chisel-subset module.
    pub build: fn() -> Module,
    /// Input ports in generation order.
    pub inputs: &'static [InputSpec],
    /// Smallest width the design elaborates at.
    pub min_width: u64,
    /// Width cap for the gate-level layer. It bounds the one formal
    /// equivalence proof per width (when [`Design::gate_spec`] is set, via
    /// [`chicala_lowlevel::Backend::Auto`]). That property is the
    /// constant-true edge as the AIG kit builds it, so the proof costs the
    /// symbolic unroll, which grows with width; the concrete cases, blasted
    /// over plain bits, are cheap at any width but share the cap so each
    /// checked width also has its proof.
    pub gate_max_width: u64,
    /// Cycles from reset until the result registers hold the final answer
    /// (inputs held constant, run started from the ready state).
    pub latency: fn(u64) -> u64,
    /// The mathematical answer check at `latency` cycles.
    pub spec: SpecFn,
    /// Gate-level golden model for the formal (all-inputs) check; `None`
    /// limits the gates layer to concrete sampling.
    pub gate_spec: Option<GateSpecFn>,
}

impl Design {
    /// Looks up a registered design by name. Besides [`all_designs`], the
    /// hidden drill designs ([`drill_designs`]) resolve here, so the CLI
    /// and replay bundles can exercise the failure path on demand without
    /// the drills ever entering a normal soak.
    pub fn by_name(name: &str) -> Option<Design> {
        all_designs()
            .into_iter()
            .chain(drill_designs())
            .find(|d| d.name == name)
    }
}

fn reg<'a>(fin: &'a FinalState, name: &str) -> Result<&'a BigInt, String> {
    fin.regs.get(name).ok_or_else(|| format!("final state has no register `{name}`"))
}

fn input<'a>(ins: &'a BTreeMap<String, BigInt>, name: &str) -> &'a BigInt {
    ins.get(name).expect("engine supplies every declared input")
}

fn expect_eq(what: &str, got: &BigInt, want: &BigInt) -> Result<(), String> {
    if got == want {
        Ok(())
    } else {
        Err(format!("{what}: got {got}, spec says {want}"))
    }
}

fn rotate_spec(_w: u64, ins: &BTreeMap<String, BigInt>, fin: &FinalState) -> Result<(), String> {
    // After 1 + len cycles the register has rotated all the way around and
    // regained the input (the paper's §2 running example).
    expect_eq("rotate R", reg(fin, "R")?, input(ins, "io_in"))
}

fn popcount_spec(_w: u64, ins: &BTreeMap<String, BigInt>, fin: &FinalState) -> Result<(), String> {
    let want = BigInt::from(input(ins, "io_in").count_ones());
    let got = fin
        .outputs
        .get("io_out")
        .ok_or_else(|| "final state has no output `io_out`".to_string())?;
    expect_eq("popcount io_out", got, &want)
}

fn rmul_spec(_w: u64, ins: &BTreeMap<String, BigInt>, fin: &FinalState) -> Result<(), String> {
    let want = input(ins, "io_a") * input(ins, "io_b");
    expect_eq("rmul acc", reg(fin, "acc")?, &want)
}

/// The drill spec: deliberately demands `acc == a*b + 1`, so `rmul_drill`
/// fails its spec layer on every case. Used by the failure-capture drill
/// (CI and `tests/failure_capture.rs`) to produce a real bundle + VCD pair
/// deterministically without breaking any registered design.
fn rmul_drill_spec(_w: u64, ins: &BTreeMap<String, BigInt>, fin: &FinalState) -> Result<(), String> {
    let want = input(ins, "io_a") * input(ins, "io_b") + BigInt::one();
    expect_eq("rmul_drill acc", reg(fin, "acc")?, &want)
}

fn xmul_spec(w: u64, ins: &BTreeMap<String, BigInt>, fin: &FinalState) -> Result<(), String> {
    // Carry-save accumulator: the product is the sum of the two halves,
    // reduced to the accumulator width 2*len + 2.
    let want = input(ins, "io_a") * input(ins, "io_b");
    let sum = (reg(fin, "acc_s")? + reg(fin, "acc_c")?).mod_floor(&BigInt::pow2(2 * w + 2));
    expect_eq("xmul acc_s + acc_c", &sum, &want)
}

fn rdiv_spec(_w: u64, ins: &BTreeMap<String, BigInt>, fin: &FinalState) -> Result<(), String> {
    let (n, d) = (input(ins, "io_n"), input(ins, "io_d"));
    expect_eq("rdiv quot", reg(fin, "quot")?, &n.div_floor(d))?;
    expect_eq("rdiv rem", reg(fin, "rem")?, &n.mod_floor(d))
}

fn xdiv_spec(w: u64, ins: &BTreeMap<String, BigInt>, fin: &FinalState) -> Result<(), String> {
    // The X-divider packs remainder above quotient in one shift register:
    // shiftReg = rem * 2^(len+1) + quot.
    let (n, d) = (input(ins, "io_n"), input(ins, "io_d"));
    let s = reg(fin, "shiftReg")?;
    let half = BigInt::pow2(w + 1);
    expect_eq("xdiv quot (shiftReg low half)", &s.mod_floor(&half), &n.div_floor(d))?;
    expect_eq("xdiv rem (shiftReg high half)", &s.div_floor(&half), &n.mod_floor(d))
}

fn output<'a>(fin: &'a FinalState, name: &str) -> Result<&'a BigInt, String> {
    fin.outputs.get(name).ok_or_else(|| format!("final state has no output `{name}`"))
}

fn csel_spec(_w: u64, ins: &BTreeMap<String, BigInt>, fin: &FinalState) -> Result<(), String> {
    let want = input(ins, "io_a") + input(ins, "io_b");
    expect_eq("csel io_sum", output(fin, "io_sum")?, &want)
}

fn ks_spec(_w: u64, ins: &BTreeMap<String, BigInt>, fin: &FinalState) -> Result<(), String> {
    let want = input(ins, "io_a") + input(ins, "io_b");
    expect_eq("ks io_sum", output(fin, "io_sum")?, &want)
}

fn csa3_spec(_w: u64, ins: &BTreeMap<String, BigInt>, fin: &FinalState) -> Result<(), String> {
    let want = input(ins, "io_a") + input(ins, "io_b") + input(ins, "io_c") + input(ins, "io_d");
    expect_eq("csa3 io_sum", output(fin, "io_sum")?, &want)
}

// ---------------------------------------------------------------------
// Gate-level golden models.
//
// Each one rebuilds the design's register recurrence combinationally over
// the same symbolic inputs, using the blaster's own word helpers so both
// sides lower to the same gate shapes. The property net compares the
// design's unrolled result registers against the rebuilt words — a miter
// that must be constant-true for *every* input assignment at this width.
// ---------------------------------------------------------------------

fn in_word<'a>(env: &'a GateEnv, name: &str) -> &'a Word<Net> {
    env.inputs.get(name).unwrap_or_else(|| panic!("gate spec: no input word `{name}`"))
}

fn reg_word<'a>(env: &'a GateEnv, name: &str) -> &'a Word<Net> {
    env.state.regs.get(name).unwrap_or_else(|| panic!("gate spec: no register word `{name}`"))
}

/// Notes the golden word for register `name` and returns the equality
/// property net comparing it against the design's unrolled register.
fn golden_reg(nl: &mut Netlist, env: &GateEnv, name: &str, golden: &Word<Net>) -> Net {
    env.note_golden(name, golden);
    nets_equal(nl, reg_word(env, name), golden)
}

/// [`golden_reg`] for an output word.
fn golden_out(nl: &mut Netlist, env: &GateEnv, name: &str, golden: &Word<Net>) -> Net {
    env.note_golden(name, golden);
    nets_equal(nl, out_word(env, name), golden)
}

/// Static left shift by `k`, wrapped to `width` bits (the `shl` + register
/// clamp the designs perform).
fn shl_word(nl: &mut Netlist, w: &Word<Net>, k: usize, width: usize) -> Word<Net> {
    let mut bits = vec![nl.constant(false); k.min(width)];
    bits.extend(w.bits.iter().copied().take(width.saturating_sub(k)));
    while bits.len() < width {
        bits.push(nl.constant(false));
    }
    Word { bits, signed: false }
}

/// Static logical right shift by `k`, padded back to `width` bits.
fn shr_word(nl: &mut Netlist, w: &Word<Net>, k: usize, width: usize) -> Word<Net> {
    let mut bits: Vec<Net> = w.bits.iter().skip(k).copied().collect();
    while bits.len() < width {
        bits.push(nl.constant(false));
    }
    bits.truncate(width);
    Word { bits, signed: false }
}

fn zero_word(nl: &mut Netlist, width: usize) -> Word<Net> {
    constant_word(nl, &BigInt::zero(), width, false)
}

/// `rotate`: after `len + 1` cycles the register has rotated all the way
/// around — `R == io_in`.
fn rotate_gate(nl: &mut Netlist, env: &GateEnv) -> Net {
    golden_reg(nl, env, "R", &in_word(env, "io_in").clone())
}

/// `popcount`: the same ripple chain of `len` one-bit adds the generator
/// loop emits.
fn popcount_gate(nl: &mut Netlist, env: &GateEnv) -> Net {
    let w = env.width as usize;
    let input = in_word(env, "io_in").clone();
    let mut acc = zero_word(nl, w + 1);
    for i in 0..w {
        let bit = Word { bits: vec![input.bits[i]], signed: false };
        acc = add_words(nl, &acc, &bit, w + 1);
    }
    golden_out(nl, env, "io_out", &acc)
}

/// `rmul`: one latch cycle, then `len` conditional adds of the
/// left-shifting multiplicand.
fn rmul_gate(nl: &mut Netlist, env: &GateEnv) -> Net {
    let w = env.width as usize;
    let w2 = 2 * w;
    let mut a_sh = extend(nl, in_word(env, "io_a"), w2);
    let mut b_sh = in_word(env, "io_b").clone();
    let mut acc = zero_word(nl, w2);
    for _ in 0..w {
        let sum = add_words(nl, &acc, &a_sh, w2);
        acc = mux_word(nl, b_sh.bits[0], &sum, &acc);
        a_sh = shl_word(nl, &a_sh, 1, w2);
        b_sh = shr_word(nl, &b_sh, 1, w);
    }
    golden_reg(nl, env, "acc", &acc)
}

/// `xmul`: radix-4 Booth windows through the same 3:2 compressor, one
/// digit per iteration, `len/2 + 1` digits.
fn xmul_gate(nl: &mut Netlist, env: &GateEnv) -> Net {
    let w = env.width as usize;
    let ww = 2 * w + 2; // accumulator width
    let mut b_sh = shl_word(nl, in_word(env, "io_b"), 1, w + 3);
    let mut a_sh = extend(nl, in_word(env, "io_a"), ww);
    let zero = zero_word(nl, ww);
    let mut acc_s = zero.clone();
    let mut acc_c = zero.clone();
    for _ in 0..(w / 2 + 1) {
        let (w0, w1, wtop) = (b_sh.bits[0], b_sh.bits[1], b_sh.bits[2]);
        let a1 = a_sh.clone();
        let a2x = shl_word(nl, &a_sh, 1, ww);
        let neg_a1 = sub_words(nl, &zero, &a1);
        let neg_a2x = sub_words(nl, &zero, &a2x);
        // Window patterns: 000->0, 001->a, 010->a, 011->2a, 100->-2a,
        // 101->-a, 110->-a, 111->0 (same mux tree as the design).
        let m00 = mux_word(nl, w0, &zero, &neg_a1);
        let m01 = mux_word(nl, w0, &neg_a1, &neg_a2x);
        let hi = mux_word(nl, w1, &m00, &m01);
        let m10 = mux_word(nl, w0, &a2x, &a1);
        let m11 = mux_word(nl, w0, &a1, &zero);
        let lo = mux_word(nl, w1, &m10, &m11);
        let pp = mux_word(nl, wtop, &hi, &lo);
        // 3:2 compressor, bitwise.
        let mut s_bits = Vec::with_capacity(ww);
        let mut maj_bits = Vec::with_capacity(ww);
        for i in 0..ww {
            let sc = nl.xor(acc_s.bits[i], acc_c.bits[i]);
            s_bits.push(nl.xor(sc, pp.bits[i]));
            let ab = nl.and(acc_s.bits[i], acc_c.bits[i]);
            let ap = nl.and(acc_s.bits[i], pp.bits[i]);
            let cp = nl.and(acc_c.bits[i], pp.bits[i]);
            let o1 = nl.or(ab, ap);
            maj_bits.push(nl.or(o1, cp));
        }
        acc_s = Word { bits: s_bits, signed: false };
        let maj = Word { bits: maj_bits, signed: false };
        acc_c = shl_word(nl, &maj, 1, ww);
        a_sh = shl_word(nl, &a_sh, 2, ww);
        b_sh = shr_word(nl, &b_sh, 2, w + 3);
    }
    let ps = golden_reg(nl, env, "acc_s", &acc_s);
    let pc = golden_reg(nl, env, "acc_c", &acc_c);
    nl.and(ps, pc)
}

/// `rdiv`: restoring division, one dividend bit per iteration. The mirror
/// replicates the circuit for *all* inputs (including `io_d == 0`), so no
/// assumption net is needed.
fn rdiv_gate(nl: &mut Netlist, env: &GateEnv) -> Net {
    let w = env.width as usize;
    let d_reg = in_word(env, "io_d").clone();
    let mut n_sh = in_word(env, "io_n").clone();
    let mut rem = zero_word(nl, w + 1);
    let mut quot = zero_word(nl, w);
    let one = constant_word(nl, &BigInt::one(), 1, false);
    for _ in 0..w {
        // shifted = {rem[len-1:0], n_sh[len-1]}
        let mut bits = vec![n_sh.bits[w - 1]];
        bits.extend(rem.bits.iter().take(w).copied());
        let shifted = Word { bits, signed: false };
        let ge = ge_words(nl, &shifted, &d_reg);
        let nge = nl.not(ge);
        let diff = sub_words(nl, &shifted, &d_reg);
        // The nested when_else elaborates last-connect-wins: the ¬ge arm is
        // the *outermost* mux over the ge arm over the held register, so the
        // golden must build mux(¬ge, keep, mux(ge, update, prev)) — not the
        // semantically equal mux(ge, update, keep) — for the miter to strash.
        let sub_arm = mux_word(nl, ge, &diff, &rem);
        rem = mux_word(nl, nge, &shifted, &sub_arm);
        let shl_q = shl_word(nl, &quot, 1, w + 1);
        let q1 = add_words(nl, &shl_q, &one, w + 1);
        let q_arm = mux_word(nl, ge, &q1, &quot);
        let q_next = mux_word(nl, nge, &shl_q, &q_arm);
        quot = Word { bits: q_next.bits.into_iter().take(w).collect(), signed: false };
        n_sh = shl_word(nl, &n_sh, 1, w);
    }
    let pr = golden_reg(nl, env, "rem", &rem);
    let pq = golden_reg(nl, env, "quot", &quot);
    nl.and(pr, pq)
}

/// `xdiv`: the same restoring step over the packed `2·len+1`-bit shift
/// register.
fn xdiv_gate(nl: &mut Netlist, env: &GateEnv) -> Net {
    let w = env.width as usize;
    let wreg = 2 * w + 1;
    let d_reg = in_word(env, "io_d").clone();
    let mut sreg = shl_word(nl, in_word(env, "io_n"), 1, wreg);
    for _ in 0..w {
        let hi = Word { bits: sreg.bits[w..=2 * w].to_vec(), signed: false };
        let lo = Word { bits: sreg.bits[..w].to_vec(), signed: false };
        let enough = ge_words(nl, &hi, &d_reg);
        let diff = sub_words(nl, &hi, &d_reg);
        let sub = mux_word(nl, enough, &diff, &hi);
        // shiftReg := {sub[len-1:0], lo, enough}
        let mut bits = vec![enough];
        bits.extend(lo.bits.iter().copied());
        bits.extend(sub.bits.iter().take(w).copied());
        sreg = Word { bits, signed: false };
    }
    golden_reg(nl, env, "shiftReg", &sreg)
}

fn out_word<'a>(env: &'a GateEnv, name: &str) -> &'a Word<Net> {
    env.state.outputs.get(name).unwrap_or_else(|| panic!("gate spec: no output word `{name}`"))
}

/// `csel`: the low half's `lo + 1`-bit add, both speculative high sums,
/// and the carry-selected concatenation.
fn csel_gate(nl: &mut Netlist, env: &GateEnv) -> Net {
    let w = env.width as usize;
    let lo = w / 2;
    let hi = w - lo;
    let a = in_word(env, "io_a").clone();
    let b = in_word(env, "io_b").clone();
    let a_lo = Word { bits: a.bits[..lo].to_vec(), signed: false };
    let b_lo = Word { bits: b.bits[..lo].to_vec(), signed: false };
    let low = add_words(nl, &a_lo, &b_lo, lo + 1);
    let a_hi = Word { bits: a.bits[lo..].to_vec(), signed: false };
    let b_hi = Word { bits: b.bits[lo..].to_vec(), signed: false };
    let high0 = add_words(nl, &a_hi, &b_hi, hi + 1);
    let one = constant_word(nl, &BigInt::one(), hi + 1, false);
    let high1 = add_words(nl, &high0, &one, hi + 1);
    // Base connect then `when` override: mux(carry, high1, high0).
    let sel = mux_word(nl, low.bits[lo], &high1, &high0);
    let mut bits: Vec<Net> = low.bits[..lo].to_vec();
    bits.extend(sel.bits.iter().copied());
    let golden = Word { bits, signed: false };
    golden_out(nl, env, "io_sum", &golden)
}

/// `ks`: the same six span-doubling generate/propagate levels, bitwise.
fn ks_gate(nl: &mut Netlist, env: &GateEnv) -> Net {
    let w = env.width as usize;
    let a = in_word(env, "io_a").clone();
    let b = in_word(env, "io_b").clone();
    let p0: Vec<Net> = (0..w).map(|i| nl.xor(a.bits[i], b.bits[i])).collect();
    let g0: Vec<Net> = (0..w).map(|i| nl.and(a.bits[i], b.bits[i])).collect();
    let mut g = g0;
    let mut p = p0.clone();
    for s in [1usize, 2, 4, 8, 16, 32] {
        let zero = nl.constant(false);
        let mut gn = Vec::with_capacity(w);
        let mut pn = Vec::with_capacity(w);
        for i in 0..w {
            let (gs, ps) = if i >= s { (g[i - s], p[i - s]) } else { (zero, zero) };
            let t = nl.and(p[i], gs);
            gn.push(nl.or(g[i], t));
            pn.push(nl.and(p[i], ps));
        }
        g = gn;
        p = pn;
    }
    let zero = nl.constant(false);
    let mut bits = Vec::with_capacity(w + 1);
    for i in 0..w {
        let cin = if i >= 1 { g[i - 1] } else { zero };
        bits.push(nl.xor(p0[i], cin));
    }
    bits.push(g[w - 1]);
    let golden = Word { bits, signed: false };
    golden_out(nl, env, "io_sum", &golden)
}

/// `csa3`: two bitwise 3:2 layers, then the final carry-propagate add.
fn csa3_gate(nl: &mut Netlist, env: &GateEnv) -> Net {
    let w = env.width as usize;
    let a = in_word(env, "io_a").clone();
    let b = in_word(env, "io_b").clone();
    let c = in_word(env, "io_c").clone();
    let d = in_word(env, "io_d").clone();
    let zero = nl.constant(false);
    // Layer 1: s1 (width w), c1 = maj << 1 (width w + 1).
    let mut s1 = Vec::with_capacity(w);
    let mut c1 = vec![zero];
    for i in 0..w {
        let ab = nl.xor(a.bits[i], b.bits[i]);
        s1.push(nl.xor(ab, c.bits[i]));
        let t1 = nl.and(a.bits[i], b.bits[i]);
        let t2 = nl.and(a.bits[i], c.bits[i]);
        let t3 = nl.and(b.bits[i], c.bits[i]);
        let m = nl.or(t1, t2);
        c1.push(nl.or(m, t3));
    }
    // Layer 2 over zero-extended operands: s2 (w + 1), c2 = maj << 1 (w + 2).
    let mut s2 = Vec::with_capacity(w + 1);
    let mut c2 = vec![zero];
    for i in 0..=w {
        let s1i = if i < w { s1[i] } else { zero };
        let di = if i < w { d.bits[i] } else { zero };
        let sx = nl.xor(s1i, c1[i]);
        s2.push(nl.xor(sx, di));
        let t1 = nl.and(s1i, c1[i]);
        let t2 = nl.and(s1i, di);
        let t3 = nl.and(c1[i], di);
        let m = nl.or(t1, t2);
        c2.push(nl.or(m, t3));
    }
    let s2w = Word { bits: s2, signed: false };
    let c2w = Word { bits: c2, signed: false };
    let golden = add_words(nl, &s2w, &c2w, w + 2);
    golden_out(nl, env, "io_sum", &golden)
}

/// All registered designs. The single enrollment point: every conformance
/// surface (library runs, `tests/conformance.rs`, the CLI soak) iterates
/// this list.
pub fn all_designs() -> Vec<Design> {
    vec![
        Design {
            name: "rotate",
            build: chicala_designs::rotate::module,
            inputs: &[InputSpec { name: "io_in", nonzero: false }],
            // At len=1 the body's `R(len-1, 1)` extract is empty — the
            // design (like the original Chisel) needs at least 2 bits.
            min_width: 2,
            gate_max_width: 28,
            latency: |w| w + 1,
            spec: rotate_spec,
            gate_spec: Some(rotate_gate),
        },
        Design {
            name: "popcount",
            build: chicala_designs::popcount::module,
            inputs: &[InputSpec { name: "io_in", nonzero: false }],
            min_width: 1,
            gate_max_width: 28,
            latency: |_| 1,
            spec: popcount_spec,
            gate_spec: Some(popcount_gate),
        },
        Design {
            name: "rmul",
            build: chicala_designs::rmul::module,
            inputs: &[
                InputSpec { name: "io_a", nonzero: false },
                InputSpec { name: "io_b", nonzero: false },
            ],
            min_width: 1,
            // 24 before the AIG optimizer; the miter now closes
            // structurally as the AIG kit builds it, so the ceiling is set
            // by the unroll's cost, not by a solver.
            gate_max_width: 32,
            latency: |w| w + 1,
            spec: rmul_spec,
            gate_spec: Some(rmul_gate),
        },
        Design {
            name: "xmul",
            build: chicala_designs::xmul::module,
            inputs: &[
                InputSpec { name: "io_a", nonzero: false },
                InputSpec { name: "io_b", nonzero: false },
            ],
            min_width: 1,
            // 16 before the AIG optimizer PR (see `rmul`).
            gate_max_width: 24,
            // Radix-4: one digit per cycle after the latch cycle.
            latency: |w| w / 2 + 2,
            spec: xmul_spec,
            gate_spec: Some(xmul_gate),
        },
        Design {
            name: "rdiv",
            build: chicala_designs::rdiv::module,
            inputs: &[
                InputSpec { name: "io_n", nonzero: false },
                InputSpec { name: "io_d", nonzero: true },
            ],
            min_width: 1,
            // 24 before the AIG optimizer PR (see `rmul`).
            gate_max_width: 32,
            latency: |w| w + 1,
            spec: rdiv_spec,
            gate_spec: Some(rdiv_gate),
        },
        Design {
            name: "xdiv",
            build: chicala_designs::xdiv::module,
            inputs: &[
                InputSpec { name: "io_n", nonzero: false },
                InputSpec { name: "io_d", nonzero: true },
            ],
            min_width: 1,
            // 24 before the AIG optimizer PR (see `rmul`).
            gate_max_width: 32,
            latency: |w| w + 1,
            spec: xdiv_spec,
            gate_spec: Some(xdiv_gate),
        },
        Design {
            name: "csel",
            build: chicala_designs::csel::module,
            inputs: &[
                InputSpec { name: "io_a", nonzero: false },
                InputSpec { name: "io_b", nonzero: false },
            ],
            // Both halves of the split `len / 2` must be non-empty.
            min_width: 2,
            gate_max_width: 24,
            latency: |_| 1,
            spec: csel_spec,
            gate_spec: Some(csel_gate),
        },
        Design {
            name: "ks",
            build: chicala_designs::ks::module,
            inputs: &[
                InputSpec { name: "io_a", nonzero: false },
                InputSpec { name: "io_b", nonzero: false },
            ],
            min_width: 1,
            gate_max_width: 24,
            latency: |_| 1,
            spec: ks_spec,
            gate_spec: Some(ks_gate),
        },
        Design {
            name: "csa3",
            build: chicala_designs::csa3::module,
            inputs: &[
                InputSpec { name: "io_a", nonzero: false },
                InputSpec { name: "io_b", nonzero: false },
                InputSpec { name: "io_c", nonzero: false },
                InputSpec { name: "io_d", nonzero: false },
            ],
            min_width: 1,
            gate_max_width: 24,
            latency: |_| 1,
            spec: csa3_spec,
            gate_spec: Some(csa3_gate),
        },
    ]
}

/// Hidden drill designs: reachable through [`Design::by_name`] but never
/// part of [`all_designs`], so normal soaks stay green. `rmul_drill` is
/// `rmul` with a deliberately wrong spec (`acc == a*b + 1`): running it
/// fails deterministically, which is exactly what the counterexample
/// capture drill (CI green-path step, `tests/failure_capture.rs`, and the
/// EXPERIMENTS walkthrough) needs.
pub fn drill_designs() -> Vec<Design> {
    vec![Design {
        name: "rmul_drill",
        build: chicala_designs::rmul::module,
        inputs: &[
            InputSpec { name: "io_a", nonzero: false },
            InputSpec { name: "io_b", nonzero: false },
        ],
        min_width: 1,
        gate_max_width: 24,
        latency: |w| w + 1,
        spec: rmul_drill_spec,
        gate_spec: None,
    }]
}


#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_is_well_formed() {
        let designs = all_designs();
        assert!(designs.len() >= 6, "all case studies enrolled");
        let mut names: Vec<_> = designs.iter().map(|d| d.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), designs.len(), "names unique");
        for d in &designs {
            let m = (d.build)();
            for spec in d.inputs {
                assert!(
                    m.decl(spec.name).is_some(),
                    "{}: input `{}` not declared by module",
                    d.name,
                    spec.name
                );
            }
            assert!((d.latency)(4) >= 1, "{}: latency must be positive", d.name);
        }
    }

    #[test]
    fn by_name_finds_and_misses() {
        assert!(Design::by_name("xmul").is_some());
        assert!(Design::by_name("nope").is_none());
    }
}
