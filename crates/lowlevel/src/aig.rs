//! And-inverter graphs: the bit-blaster's gate kit and the form the BDD
//! and SAT engines read.
//!
//! Every gate is a 2-input AND with complement edges; `or`, `xor` and
//! `not` are built from it (see `impl BitKit for Aig` in
//! [`crate::bitblast`]). Three simplifications run *as each gate is
//! built*, so structurally similar design/golden pairs collapse before any
//! engine sees them:
//!
//! * **constant propagation** — the unit rules (constant operand,
//!   idempotence, complement);
//! * **structural hashing** — identical `(lhs, rhs)` AND gates are shared
//!   (commutatively normalised), merging the common substructure of a
//!   miter's two halves;
//! * **2-level rewriting** — the Brummayer–Biere one-level/two-level rules
//!   (idempotence, contradiction, subsumption, substitution) catch the
//!   redundancies hashing alone cannot see.
//!
//! An unrolled design's constant counter registers, and the muxes and
//! indexed shifts they select, are therefore plain wiring: every registry
//! miter is the constant-true edge as built. Fuzzer self-miters and sweep
//! families are general cones; [`crate::cnf`] encodes them for the SAT
//! engine.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// A multiply-xor hasher for the AIG's strash table. Its keys are two
/// dense 32-bit edges, so a single 64-bit multiply per word mixes them
/// better per cycle than the DoS-resistant default hasher — and the strash
/// lookup is the inner loop of every unroll.
#[derive(Default)]
struct MixHasher(u64);

impl Hasher for MixHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(b as u64);
        }
    }

    fn write_u32(&mut self, v: u32) {
        self.write_u64(v as u64);
    }

    fn write_u64(&mut self, v: u64) {
        self.0 = (self.0 ^ v).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        self.0 ^= self.0 >> 29;
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

type MixBuild = BuildHasherDefault<MixHasher>;

/// An AIG edge: node index with a complement bit in the LSB.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct AigRef(u32);

/// The constant-false edge (node 0, uncomplemented).
pub const AIG_FALSE: AigRef = AigRef(0);
/// The constant-true edge (node 0, complemented).
pub const AIG_TRUE: AigRef = AigRef(1);

impl AigRef {
    /// The node index this edge points at.
    pub fn node(self) -> u32 {
        self.0 >> 1
    }

    /// Whether the edge is complemented.
    pub fn is_compl(self) -> bool {
        self.0 & 1 == 1
    }

    fn make(node: u32, compl_: bool) -> AigRef {
        AigRef(node << 1 | compl_ as u32)
    }

    /// The uncomplemented edge of a node index.
    pub(crate) fn from_node(n: u32) -> AigRef {
        AigRef::make(n, false)
    }

    /// This edge's value, given every node's value from [`Aig::eval_all`].
    pub fn value(self, node_values: &[bool]) -> bool {
        node_values[self.node() as usize] ^ self.is_compl()
    }
}

/// The bit-blaster's gate kit under the name its callers know: the same
/// graph as [`Aig`].
pub type Netlist = Aig;

/// A bit of the [`Netlist`] kit: an [`AigRef`] edge.
pub type Net = AigRef;

impl std::ops::Not for AigRef {
    type Output = AigRef;

    fn not(self) -> AigRef {
        AigRef(self.0 ^ 1)
    }
}

/// An AIG node. Node 0 is always the constant-false node.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AigNode {
    /// The constant node (index 0 only).
    Const,
    /// A primary input.
    Input,
    /// A 2-input AND over two edges.
    And(AigRef, AigRef),
}

/// An and-inverter graph under construction.
#[derive(Clone, Debug)]
pub struct Aig {
    nodes: Vec<AigNode>,
    strash: HashMap<(AigRef, AigRef), u32, MixBuild>,
}

impl Default for Aig {
    fn default() -> Aig {
        Aig::new()
    }
}

impl Aig {
    /// An empty graph (just the constant node).
    pub fn new() -> Aig {
        Aig { nodes: vec![AigNode::Const], strash: HashMap::default() }
    }

    /// Creates a fresh primary input.
    pub fn input(&mut self) -> AigRef {
        let n = self.nodes.len() as u32;
        self.nodes.push(AigNode::Input);
        AigRef::make(n, false)
    }

    /// The node behind an edge.
    pub fn node(&self, r: AigRef) -> AigNode {
        self.nodes[r.node() as usize]
    }

    /// Total nodes (constant and inputs included).
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the graph holds only the constant node.
    pub fn is_empty(&self) -> bool {
        self.nodes.len() == 1
    }

    /// Number of AND nodes (the size measure reported to telemetry).
    pub fn and_count(&self) -> usize {
        self.nodes.iter().filter(|n| matches!(n, AigNode::And(_, _))).count()
    }

    /// The cone of influence of `root`: a mark per node id, set for every
    /// node `root` reads.
    pub(crate) fn cone(&self, root: AigRef) -> Vec<bool> {
        let mut in_cone = vec![false; self.nodes.len()];
        let mut stack = vec![root.node()];
        while let Some(n) = stack.pop() {
            if std::mem::replace(&mut in_cone[n as usize], true) {
                continue;
            }
            if let AigNode::And(x, y) = self.nodes[n as usize] {
                stack.push(x.node());
                stack.push(y.node());
            }
        }
        in_cone
    }

    /// If `r` is an (uncomplemented) AND edge, its children.
    fn and_children(&self, r: AigRef) -> Option<(AigRef, AigRef)> {
        if r.is_compl() {
            return None;
        }
        match self.nodes[r.node() as usize] {
            AigNode::And(x, y) => Some((x, y)),
            _ => None,
        }
    }

    /// Conjunction with constant propagation, one/two-level rewriting, and
    /// structural hashing.
    pub fn and(&mut self, a: AigRef, b: AigRef) -> AigRef {
        // Constant and unit rules.
        if a == AIG_FALSE || b == AIG_FALSE || a == !b {
            return AIG_FALSE;
        }
        if a == AIG_TRUE {
            return b;
        }
        if b == AIG_TRUE || a == b {
            return a;
        }
        // One-level rules against AND children (Brummayer–Biere O1/O2):
        // contradiction and idempotence looking one level down.
        if let Some((x, y)) = self.and_children(a) {
            if b == !x || b == !y {
                return AIG_FALSE; // (x∧y)∧¬x
            }
            if b == x || b == y {
                return a; // (x∧y)∧x
            }
        }
        if let Some((x, y)) = self.and_children(b) {
            if a == !x || a == !y {
                return AIG_FALSE;
            }
            if a == x || a == y {
                return b;
            }
        }
        // Two-level rules across two AND children.
        if let (Some((x, y)), Some((u, v))) = (self.and_children(a), self.and_children(b)) {
            // Contradiction: (x∧y)∧(u∧v) with a complementary pair.
            if x == !u || x == !v || y == !u || y == !v {
                return AIG_FALSE;
            }
            // Subsumption: identical children mean one side implies the
            // other's obligations are already met.
            if (x == u && y == v) || (x == v && y == u) {
                return a;
            }
        }
        // Substitution: ¬(x∧y) ∧ x  =  x ∧ ¬y (strictly smaller support).
        if a.is_compl() {
            if let Some((x, y)) = self.and_children(!a) {
                if b == x {
                    return self.and(b, !y);
                }
                if b == y {
                    return self.and(b, !x);
                }
            }
        }
        if b.is_compl() {
            if let Some((x, y)) = self.and_children(!b) {
                if a == x {
                    return self.and(a, !y);
                }
                if a == y {
                    return self.and(a, !x);
                }
            }
        }
        // Structural hashing with commutative normalisation.
        let key = if a <= b { (a, b) } else { (b, a) };
        if let Some(&n) = self.strash.get(&key) {
            return AigRef::make(n, false);
        }
        let n = self.nodes.len() as u32;
        self.nodes.push(AigNode::And(key.0, key.1));
        self.strash.insert(key, n);
        AigRef::make(n, false)
    }

    /// Disjunction via De Morgan.
    pub fn or(&mut self, a: AigRef, b: AigRef) -> AigRef {
        let x = self.and(!a, !b);
        !x
    }

    /// Exclusive or: (a ∨ b) ∧ ¬(a ∧ b).
    pub fn xor(&mut self, a: AigRef, b: AigRef) -> AigRef {
        let ab = self.and(a, b);
        let o = self.or(a, b);
        self.and(o, !ab)
    }

    /// Every node's value under an input assignment, indexed by node id:
    /// `inputs` gives each primary input's value by its edge. Read an
    /// edge's value with [`AigRef::value`].
    pub fn eval_all(&self, inputs: &dyn Fn(AigRef) -> bool) -> Vec<bool> {
        let mut values: Vec<bool> = Vec::with_capacity(self.nodes.len());
        for (i, n) in self.nodes.iter().enumerate() {
            let v = match n {
                AigNode::Const => false,
                AigNode::Input => inputs(AigRef::from_node(i as u32)),
                AigNode::And(x, y) => x.value(&values) && y.value(&values),
            };
            values.push(v);
        }
        values
    }

    /// Evaluates an edge under an input assignment (indexed by node id).
    pub fn eval(&self, r: AigRef, inputs: &dyn Fn(u32) -> bool) -> bool {
        r.value(&self.eval_all(&|input| inputs(input.node())))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bitblast::BitKit;

    #[test]
    fn constants_and_units() {
        let mut g = Aig::new();
        let x = g.input();
        assert_eq!(g.and(x, AIG_FALSE), AIG_FALSE);
        assert_eq!(g.and(AIG_TRUE, x), x);
        assert_eq!(g.and(x, x), x);
        assert_eq!(g.and(x, !x), AIG_FALSE);
        assert_eq!(g.and_count(), 0, "unit rules build no nodes");
    }

    #[test]
    fn strash_shares_commuted_ands() {
        let mut g = Aig::new();
        let x = g.input();
        let y = g.input();
        assert_eq!(g.and(x, y), g.and(y, x));
        assert_eq!(g.and_count(), 1);
    }

    #[test]
    fn two_level_rules_fold() {
        let mut g = Aig::new();
        let x = g.input();
        let y = g.input();
        let xy = g.and(x, y);
        // (x∧y)∧¬x = false; (x∧y)∧x = x∧y.
        assert_eq!(g.and(xy, !x), AIG_FALSE);
        assert_eq!(g.and(xy, x), xy);
        // Substitution: ¬(x∧y)∧x = x∧¬y.
        let sub = g.and(!xy, x);
        let expect = g.and(x, !y);
        assert_eq!(sub, expect);
        // Two-level contradiction: (x∧y)∧(¬x∧y) = false.
        let nxy = g.and(!x, y);
        assert_eq!(g.and(xy, nxy), AIG_FALSE);
    }

    #[test]
    fn xor_truth_table() {
        let mut g = Aig::new();
        let x = g.input();
        let y = g.input();
        let r = g.xor(x, y);
        for bits in 0..4u32 {
            let vx = bits & 1 == 1;
            let vy = bits & 2 == 2;
            let want = vx ^ vy;
            let got = g.eval(r, &|n| {
                if n == x.node() {
                    vx
                } else {
                    vy
                }
            });
            assert_eq!(got, want, "xor({vx},{vy})");
        }
    }

    #[test]
    fn constant_propagation_collapses_constant_cones() {
        // Feeding constants through a cone of kit gates must fold to a
        // constant edge — the property that makes unrolled counters free.
        let mut g = Aig::new();
        let t = g.constant(true);
        let f = g.constant(false);
        let x = g.input();
        let a = g.or(t, x); // true
        let b = g.and(f, x); // false
        assert_eq!(g.xor(a, b), AIG_TRUE);
        assert_eq!(g.and_count(), 0);
    }
}
