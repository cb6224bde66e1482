//! And-inverter graphs: the intermediate form of the SAT equivalence
//! backend.
//!
//! A [`Netlist`] cone is lowered to 2-input AND gates with complement
//! edges. Three simplifications run *during construction*, so structurally
//! similar design/golden pairs collapse before any CNF is emitted:
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
//! The [`Netlist`] kit applies the same unit rules as each gate is built,
//! so an unrolled design's constant counter registers, and the muxes and
//! indexed shifts they select, are plain wiring before lowering starts:
//! every registry miter arrives here as a constant net. The 2-level rules
//! stay here, for general cones (fuzzer self-miters, sweep families).
//!
//! The result feeds [`crate::cnf`] for Tseitin encoding.

use crate::netlist::{Gate, Net, Netlist};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// A multiply-xor hasher for the strash tables of the AIG and the
/// [`Netlist`] kit. Their keys are a few dense 32-bit ids (plus a gate
/// tag), so a single 64-bit multiply per word mixes them better per cycle
/// than the DoS-resistant default hasher — and the strash lookup is the
/// inner loop of every unroll and every lowering.
#[derive(Default)]
pub(crate) struct MixHasher(u64);

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

    // Derived `Hash` writes enum tags through here.
    fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

pub(crate) type MixBuild = BuildHasherDefault<MixHasher>;

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
}

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
    /// AND requests received (before hashing/rewriting) — the "pre" side
    /// of the structural-hashing telemetry.
    pub and_requests: u64,
}

impl Default for Aig {
    fn default() -> Aig {
        Aig::new()
    }
}

impl Aig {
    /// An empty graph (just the constant node).
    pub fn new() -> Aig {
        Aig { nodes: vec![AigNode::Const], strash: HashMap::default(), and_requests: 0 }
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

    /// Number of primary inputs.
    pub fn input_count(&self) -> usize {
        self.nodes.iter().filter(|n| matches!(n, AigNode::Input)).count()
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
        self.and_requests += 1;
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

    /// Evaluates an edge under an input assignment (indexed by node id).
    pub fn eval(&self, r: AigRef, inputs: &dyn Fn(u32) -> bool) -> bool {
        let mut values: Vec<bool> = Vec::with_capacity(self.nodes.len());
        for (i, n) in self.nodes.iter().enumerate() {
            let v = match n {
                AigNode::Const => false,
                AigNode::Input => inputs(i as u32),
                AigNode::And(x, y) => {
                    let vx = values[x.node() as usize] ^ x.is_compl();
                    let vy = values[y.node() as usize] ^ y.is_compl();
                    vx && vy
                }
            };
            values.push(v);
        }
        values[r.node() as usize] ^ r.is_compl()
    }
}

/// Lowers the cone of `roots` in a [`Netlist`] to an AIG.
///
/// Returns the graph, the AIG edges of the requested roots, and the mapping
/// from netlist `Input` nets (those inside the cone) to their AIG input
/// nodes — the key for decoding SAT counterexample models back into design
/// input values.
pub fn from_netlist(nl: &Netlist, roots: &[Net]) -> (Aig, Vec<AigRef>, HashMap<Net, AigRef>) {
    let mut aig = Aig::new();
    // Netlist ids are dense, so the net → edge map is a flat vector (the
    // lowering visits every cone net once; hashing here would dominate).
    let mut map: Vec<AigRef> = vec![AIG_FALSE; nl.len()];
    let mut inputs: HashMap<Net, AigRef> = HashMap::new();
    // Mark the cone of influence so untouched netlist regions cost nothing.
    let mut in_cone = vec![false; nl.len()];
    let mut stack: Vec<Net> = roots.to_vec();
    while let Some(n) = stack.pop() {
        if std::mem::replace(&mut in_cone[n.0 as usize], true) {
            continue;
        }
        match nl.gate(n) {
            Gate::And(a, b) | Gate::Or(a, b) | Gate::Xor(a, b) => {
                stack.push(a);
                stack.push(b);
            }
            Gate::Not(a) => stack.push(a),
            Gate::Const(_) | Gate::Input => {}
        }
    }
    for i in 0..nl.len() {
        if !in_cone[i] {
            continue;
        }
        let net = Net(i as u32);
        let r = match nl.gate(net) {
            Gate::Const(b) => {
                if b {
                    AIG_TRUE
                } else {
                    AIG_FALSE
                }
            }
            Gate::Input => {
                let r = aig.input();
                inputs.insert(net, r);
                r
            }
            Gate::And(a, b) => {
                let (x, y) = (map[a.0 as usize], map[b.0 as usize]);
                aig.and(x, y)
            }
            Gate::Or(a, b) => {
                let (x, y) = (map[a.0 as usize], map[b.0 as usize]);
                aig.or(x, y)
            }
            Gate::Xor(a, b) => {
                let (x, y) = (map[a.0 as usize], map[b.0 as usize]);
                aig.xor(x, y)
            }
            Gate::Not(a) => !map[a.0 as usize],
        };
        map[i] = r;
    }
    let root_refs = roots.iter().map(|r| map[r.0 as usize]).collect();
    (aig, root_refs, inputs)
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
        assert!(g.and_requests >= 2);
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
    fn netlist_lowering_preserves_semantics() {
        // A full adder netlist lowered to AIG agrees gate-for-gate.
        let mut nl = Netlist::new();
        let a = nl.input();
        let b = nl.input();
        let c = nl.input();
        let (s, co) = nl.full_add(a, b, c);
        let (aig, roots, inputs) = from_netlist(&nl, &[s, co]);
        for bits in 0..8u32 {
            let assign = |net: Net| -> bool {
                if net == a {
                    bits & 1 == 1
                } else if net == b {
                    bits & 2 == 2
                } else {
                    bits & 4 == 4
                }
            };
            let vals = nl.eval(&assign);
            for (k, root) in roots.iter().enumerate() {
                let got = aig.eval(*root, &|node| {
                    let net = inputs
                        .iter()
                        .find(|(_, r)| r.node() == node)
                        .map(|(n, _)| *n)
                        .expect("input node maps back");
                    assign(net)
                });
                let want = vals[[s, co][k].0 as usize];
                assert_eq!(got, want, "root {k} at input {bits:03b}");
            }
        }
    }

    #[test]
    fn constant_propagation_collapses_constant_cones() {
        // Feeding constants through a netlist cone must fold to a constant
        // edge — the property that makes unrolled counters free.
        let mut nl = Netlist::new();
        let t = nl.constant(true);
        let f = nl.constant(false);
        let x = nl.input();
        let a = nl.or(t, x); // true
        let b = nl.and(f, x); // false
        let r = nl.xor(a, b); // true
        let (aig, roots, _) = from_netlist(&nl, &[r]);
        assert_eq!(roots[0], AIG_TRUE);
        assert_eq!(aig.and_count(), 0);
    }
}
