//! A gate-level netlist: the [`crate::bitblast::BitKit`] back-end that
//! materialises gates, for gate counts (area proxy) and for the symbolic
//! cones that proofs lower to the AIG. Simulating one concrete case does
//! not need the gates: blast it over [`crate::Eval`] instead
//! ([`Netlist::eval`] gives the same bits).
//!
//! Each requested gate first meets the AIG's unit rules (see
//! [`crate::aig`]): a constant operand, two equal operands or two
//! complementary ones (`x` and `¬x`), `¬¬x` and `¬const` fold to a
//! constant or to an operand, building no logic gate. Only what survives
//! is structurally hashed, keyed by the AIG's multiply-xor hasher.
//! Unrolling a design whose counter starts at a constant therefore builds
//! no control logic for it: every mux select is a constant net and the
//! mux is plain wiring. Each registry design-vs-golden property comes out
//! as the constant-true net here, before any lowering.

use crate::aig::MixBuild;
use crate::bitblast::BitKit;
use std::collections::HashMap;

/// A net index.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Net(pub u32);

/// A gate.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Gate {
    /// Constant driver.
    Const(bool),
    /// Primary input (free bit).
    Input,
    /// Conjunction.
    And(Net, Net),
    /// Disjunction.
    Or(Net, Net),
    /// Exclusive or.
    Xor(Net, Net),
    /// Inverter.
    Not(Net),
}

/// A netlist builder that folds the unit rules and structurally hashes
/// the gates they leave.
#[derive(Clone, Debug, Default)]
pub struct Netlist {
    gates: Vec<Gate>,
    hash: HashMap<Gate, Net, MixBuild>,
}

impl Netlist {
    /// An empty netlist.
    pub fn new() -> Netlist {
        Netlist::default()
    }

    /// Creates a fresh primary input.
    pub fn input(&mut self) -> Net {
        let n = Net(self.gates.len() as u32);
        self.gates.push(Gate::Input);
        n
    }

    fn mk(&mut self, g: Gate) -> Net {
        if let Some(&n) = self.hash.get(&g) {
            return n;
        }
        let n = Net(self.gates.len() as u32);
        self.gates.push(g);
        self.hash.insert(g, n);
        n
    }

    /// The value of a constant net.
    fn const_value(&self, n: Net) -> Option<bool> {
        match self.gate(n) {
            Gate::Const(v) => Some(v),
            _ => None,
        }
    }

    /// Whether one net is the inverter of the other.
    fn complementary(&self, a: Net, b: Net) -> bool {
        self.gate(a) == Gate::Not(b) || self.gate(b) == Gate::Not(a)
    }

    /// Total gates (constants and inputs included).
    pub fn len(&self) -> usize {
        self.gates.len()
    }

    /// The gate driving a net.
    pub fn gate(&self, n: Net) -> Gate {
        self.gates[n.0 as usize]
    }

    /// Whether the netlist is empty.
    pub fn is_empty(&self) -> bool {
        self.gates.is_empty()
    }

    /// Count of logic gates only (excluding inputs/constants).
    pub fn gate_count(&self) -> usize {
        self.gates
            .iter()
            .filter(|g| !matches!(g, Gate::Input | Gate::Const(_)))
            .count()
    }

    /// Evaluates the whole netlist under the given input values (indexed
    /// by net id for `Input` gates).
    pub fn eval(&self, inputs: &dyn Fn(Net) -> bool) -> Vec<bool> {
        let mut values = Vec::with_capacity(self.gates.len());
        for (i, g) in self.gates.iter().enumerate() {
            let v = match g {
                Gate::Const(b) => *b,
                Gate::Input => inputs(Net(i as u32)),
                Gate::And(a, b) => values[a.0 as usize] && values[b.0 as usize],
                Gate::Or(a, b) => values[a.0 as usize] || values[b.0 as usize],
                Gate::Xor(a, b) => values[a.0 as usize] ^ values[b.0 as usize],
                Gate::Not(a) => !values[a.0 as usize],
            };
            values.push(v);
        }
        values
    }
}

impl BitKit for Netlist {
    type Bit = Net;

    fn constant(&mut self, v: bool) -> Net {
        self.mk(Gate::Const(v))
    }

    fn and(&mut self, a: Net, b: Net) -> Net {
        match (self.const_value(a), self.const_value(b)) {
            // 0∧x = 0, x∧1 = x
            (Some(false), _) | (_, Some(true)) => return a,
            // x∧0 = 0, 1∧x = x
            (_, Some(false)) | (Some(true), _) => return b,
            _ => {}
        }
        if a == b {
            return a;
        }
        if self.complementary(a, b) {
            return self.constant(false);
        }
        self.mk(Gate::And(a.min(b), a.max(b)))
    }

    fn or(&mut self, a: Net, b: Net) -> Net {
        match (self.const_value(a), self.const_value(b)) {
            // 1∨x = 1, x∨0 = x
            (Some(true), _) | (_, Some(false)) => return a,
            // x∨1 = 1, 0∨x = x
            (_, Some(true)) | (Some(false), _) => return b,
            _ => {}
        }
        if a == b {
            return a;
        }
        if self.complementary(a, b) {
            return self.constant(true);
        }
        self.mk(Gate::Or(a.min(b), a.max(b)))
    }

    fn xor(&mut self, a: Net, b: Net) -> Net {
        match (self.const_value(a), self.const_value(b)) {
            (_, Some(false)) => return a,
            (Some(false), _) => return b,
            (_, Some(true)) => return self.not(a),
            (Some(true), _) => return self.not(b),
            _ => {}
        }
        if a == b {
            return self.constant(false);
        }
        if self.complementary(a, b) {
            return self.constant(true);
        }
        self.mk(Gate::Xor(a.min(b), a.max(b)))
    }

    fn not(&mut self, a: Net) -> Net {
        match self.gate(a) {
            Gate::Const(v) => self.constant(!v),
            Gate::Not(x) => x,
            _ => self.mk(Gate::Not(a)),
        }
    }

    fn size_hint(&self) -> Option<usize> {
        Some(self.gate_count())
    }
}

/// The BDD manager as a bit kit (for per-width formal checking).
impl BitKit for crate::bdd::Bdd {
    type Bit = crate::bdd::Ref;

    fn constant(&mut self, v: bool) -> Self::Bit {
        crate::bdd::Bdd::constant(self, v)
    }

    fn and(&mut self, a: Self::Bit, b: Self::Bit) -> Self::Bit {
        crate::bdd::Bdd::and(self, a, b)
    }

    fn or(&mut self, a: Self::Bit, b: Self::Bit) -> Self::Bit {
        crate::bdd::Bdd::or(self, a, b)
    }

    fn xor(&mut self, a: Self::Bit, b: Self::Bit) -> Self::Bit {
        crate::bdd::Bdd::xor(self, a, b)
    }

    fn not(&mut self, a: Self::Bit) -> Self::Bit {
        crate::bdd::Bdd::not(self, a)
    }

    fn size_hint(&self) -> Option<usize> {
        Some(self.node_count())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Eval;

    #[test]
    fn structural_hashing_shares_gates() {
        let mut n = Netlist::new();
        let a = n.input();
        let b = n.input();
        let x1 = n.and(a, b);
        let x2 = n.and(b, a); // commutative normalisation
        assert_eq!(x1, x2);
        assert_eq!(n.gate_count(), 1);
    }

    #[test]
    fn unit_rules_build_no_gate() {
        let mut n = Netlist::new();
        let x = n.input();
        let nx = n.not(x);
        let t = n.constant(true);
        let f = n.constant(false);
        let size = n.len();
        // Constant operands, on either side.
        for (a, b) in [(x, f), (f, x)] {
            assert_eq!(n.and(a, b), f, "x∧0");
            assert_eq!(n.or(a, b), x, "x∨0");
            assert_eq!(n.xor(a, b), x, "x⊕0");
        }
        for (a, b) in [(x, t), (t, x)] {
            assert_eq!(n.and(a, b), x, "x∧1");
            assert_eq!(n.or(a, b), t, "x∨1");
            assert_eq!(n.xor(a, b), nx, "x⊕1");
        }
        // Idempotence.
        assert_eq!(n.and(x, x), x, "x∧x");
        assert_eq!(n.or(x, x), x, "x∨x");
        assert_eq!(n.xor(x, x), f, "x⊕x");
        // Complements, on either side.
        for (a, b) in [(x, nx), (nx, x)] {
            assert_eq!(n.and(a, b), f, "x∧¬x");
            assert_eq!(n.or(a, b), t, "x∨¬x");
            assert_eq!(n.xor(a, b), t, "x⊕¬x");
        }
        // Double negation and negated constants.
        assert_eq!(n.not(nx), x, "¬¬x");
        assert_eq!(n.not(t), f, "¬1");
        assert_eq!(n.not(f), t, "¬0");
        assert_eq!(n.len(), size, "unit rules build no gate");
        // A mux on a constant select is plain wiring.
        let y = n.input();
        let size = n.len();
        assert_eq!(n.mux(t, x, y), x);
        assert_eq!(n.mux(f, x, y), y);
        assert_eq!(n.len(), size, "a constant-select mux builds no gate");
    }

    /// One step of a random gate DAG: operands index earlier steps.
    #[derive(Clone, Copy, Debug)]
    enum Step {
        Input,
        Const(bool),
        And(usize, usize),
        Or(usize, usize),
        Xor(usize, usize),
        Not(usize),
        Mux(usize, usize, usize),
    }

    /// Replays `steps` over any kit, `input` supplying the input bits in
    /// order.
    fn replay<K: BitKit>(
        kit: &mut K,
        steps: &[Step],
        mut input: impl FnMut(&mut K) -> K::Bit,
    ) -> Vec<K::Bit> {
        let mut bits: Vec<K::Bit> = Vec::with_capacity(steps.len());
        for &step in steps {
            let bit = match step {
                Step::Input => input(kit),
                Step::Const(v) => kit.constant(v),
                Step::And(a, b) => kit.and(bits[a].clone(), bits[b].clone()),
                Step::Or(a, b) => kit.or(bits[a].clone(), bits[b].clone()),
                Step::Xor(a, b) => kit.xor(bits[a].clone(), bits[b].clone()),
                Step::Not(a) => kit.not(bits[a].clone()),
                Step::Mux(c, t, f) => kit.mux(bits[c].clone(), bits[t].clone(), bits[f].clone()),
            };
            bits.push(bit);
        }
        bits
    }

    #[test]
    fn folding_agrees_with_the_eval_kit_on_random_dags() {
        const INPUTS: usize = 6;
        let mut state = 0x5EED_F01Du64;
        let mut next = move |bound: usize| {
            // splitmix64
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            ((z ^ (z >> 31)) % bound as u64) as usize
        };
        let mut folded = 0;
        for _ in 0..40 {
            let mut steps = vec![Step::Input; INPUTS];
            steps.push(Step::Const(false));
            steps.push(Step::Const(true));
            while steps.len() < 120 {
                // Operands drawn from the last few steps, so equal and
                // complementary pairs (and constants) meet often.
                let len = steps.len();
                let kind = next(7);
                let mut pick = || len - 1 - next(len.min(12));
                let step = match kind {
                    0 => Step::And(pick(), pick()),
                    1 => Step::Or(pick(), pick()),
                    2 => Step::Xor(pick(), pick()),
                    3 => Step::Not(pick()),
                    4 => Step::Mux(pick(), pick(), pick()),
                    k => Step::Const(k == 6),
                };
                steps.push(step);
            }
            let mut nl = Netlist::new();
            let nets = replay(&mut nl, &steps, |kit| kit.input());
            let inputs: Vec<Net> = nets[..INPUTS].to_vec();
            // Logic steps whose net is not a gate of their own kind: a
            // unit rule answered them.
            folded += steps
                .iter()
                .zip(&nets)
                .filter(|&(step, &net)| match (step, nl.gate(net)) {
                    (Step::And(..), Gate::And(..))
                    | (Step::Or(..), Gate::Or(..))
                    | (Step::Xor(..), Gate::Xor(..))
                    | (Step::Not(_), Gate::Not(_)) => false,
                    (Step::And(..) | Step::Or(..) | Step::Xor(..) | Step::Not(_), _) => true,
                    _ => false,
                })
                .count();
            for assignment in 0u32..1 << INPUTS {
                let bit = |i: usize| (assignment >> i) & 1 == 1;
                let vals = nl.eval(&|net| bit(inputs.iter().position(|&n| n == net).unwrap()));
                let mut next_input = 0;
                let want = replay(&mut Eval, &steps, |_| {
                    next_input += 1;
                    bit(next_input - 1)
                });
                for (k, (net, want)) in nets.iter().zip(want).enumerate() {
                    let step = steps[k];
                    assert_eq!(vals[net.0 as usize], want, "step {k} ({step:?}) at {assignment:06b}");
                }
            }
        }
        assert!(folded > 0, "the random DAGs never hit a unit rule");
    }

    #[test]
    fn eval_full_adder() {
        use crate::bitblast::BitKit;
        let mut n = Netlist::new();
        let a = n.input();
        let b = n.input();
        let c = n.input();
        let (s, co) = n.full_add(a, b, c);
        for bits in 0..8u32 {
            let vals = n.eval(&|net| match net {
                x if x == a => bits & 1 == 1,
                x if x == b => bits & 2 == 2,
                x if x == c => bits & 4 == 4,
                _ => false,
            });
            let total = (bits & 1) + ((bits >> 1) & 1) + ((bits >> 2) & 1);
            assert_eq!(vals[s.0 as usize] as u32, total & 1);
            assert_eq!(vals[co.0 as usize] as u32, total >> 1);
        }
    }
}
