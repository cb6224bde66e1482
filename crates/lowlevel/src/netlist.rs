//! A gate-level netlist: the [`crate::bitblast::BitKit`] back-end that
//! materialises structurally hashed gates, for gate counts (area proxy)
//! and for the symbolic cones that proofs lower to the AIG. Simulating
//! one concrete case does not need the gates: blast it over
//! [`crate::Eval`] instead ([`Netlist::eval`] gives the same bits).

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

/// A netlist builder with structural hashing.
#[derive(Clone, Debug, Default)]
pub struct Netlist {
    gates: Vec<Gate>,
    hash: HashMap<Gate, Net>,
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
        let (a, b) = if a <= b { (a, b) } else { (b, a) };
        self.mk(Gate::And(a, b))
    }

    fn or(&mut self, a: Net, b: Net) -> Net {
        let (a, b) = if a <= b { (a, b) } else { (b, a) };
        self.mk(Gate::Or(a, b))
    }

    fn xor(&mut self, a: Net, b: Net) -> Net {
        let (a, b) = if a <= b { (a, b) } else { (b, a) };
        self.mk(Gate::Xor(a, b))
    }

    fn not(&mut self, a: Net) -> Net {
        self.mk(Gate::Not(a))
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
