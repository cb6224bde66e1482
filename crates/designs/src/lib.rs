//! The verified case-study designs: the paper's running example plus the
//! four RISC-V arithmetic units (RocketChip and XiangShan dividers and
//! multipliers), each with its Chisel-subset module, specification,
//! invariants, and proof scripts.

pub mod csa3;
pub mod csel;
pub mod ks;
pub mod popcount;
pub mod rdiv;
pub mod xdiv;
pub mod xmul;
pub mod rmul;
pub mod rotate;

use chicala_chisel::Module;
use chicala_verify::{generate_vcs, prepare_env, DesignSpec, Env, Vc};

/// One case-study design's verification artefacts: the Chisel-subset
/// module builder plus its deductive spec where one exists (popcount is
/// conformance-tested but carries no verify spec yet).
pub struct VerifiedDesign {
    /// Registry name (matches the conformance registry).
    pub name: &'static str,
    /// Builds the Chisel-subset module.
    pub module: fn() -> Module,
    /// The design's `DesignSpec`, if it has one.
    pub spec: Option<fn() -> DesignSpec>,
}

impl VerifiedDesign {
    /// The design's proof job, or `None` if it has no spec.
    pub fn job(&self) -> Option<Result<ProofJob, String>> {
        self.spec.map(|spec| ProofJob::new(&(self.module)(), spec()))
    }
}

/// A design's all-width proof, ready for the driver
/// ([`chicala_verify::discharge_all`]): the paper's pipeline from
/// Chisel-subset module to sequential program to verification conditions,
/// built in one place.
pub struct ProofJob {
    /// The kernel environment: axioms, the bit-vector library, and the
    /// spec's ghost definitions, proved lemmas and trusted lemmas.
    pub env: Env,
    /// The design's specification and proof scripts.
    pub spec: DesignSpec,
    /// Every §3.1 verification condition, in generation order.
    pub vcs: Vec<Vc>,
}

impl ProofJob {
    /// Transforms `module`, installs the bit-vector library (the only
    /// lemma library a design's proof gets), proves the lemmas of `spec`
    /// and generates its VCs.
    ///
    /// # Errors
    ///
    /// The first step that fails, as text: the transformation, a library
    /// or spec lemma, or VC generation.
    pub fn new(module: &Module, spec: DesignSpec) -> Result<ProofJob, String> {
        let out = chicala_core::transform(module).map_err(|e| e.to_string())?;
        let mut env = Env::new();
        chicala_bvlib::install_bitvec(&mut env).map_err(|(n, e)| format!("lemma {n}: {e}"))?;
        prepare_env(&mut env, &spec).map_err(|e| e.to_string())?;
        let vcs = generate_vcs(&out.program, &spec, &out.obligations).map_err(|e| e.to_string())?;
        Ok(ProofJob { env, spec, vcs })
    }
}

/// Every case-study design with its verification spec, in the
/// conformance registry's order.
pub fn verified_designs() -> Vec<VerifiedDesign> {
    vec![
        VerifiedDesign { name: "rotate", module: rotate::module, spec: Some(rotate::spec) },
        VerifiedDesign { name: "popcount", module: popcount::module, spec: None },
        VerifiedDesign { name: "rmul", module: rmul::module, spec: Some(rmul::spec) },
        VerifiedDesign { name: "xmul", module: xmul::module, spec: Some(xmul::spec) },
        VerifiedDesign { name: "rdiv", module: rdiv::module, spec: Some(rdiv::spec) },
        VerifiedDesign { name: "xdiv", module: xdiv::module, spec: Some(xdiv::spec) },
        VerifiedDesign { name: "csel", module: csel::module, spec: None },
        VerifiedDesign { name: "ks", module: ks::module, spec: None },
        VerifiedDesign { name: "csa3", module: csa3::module, spec: None },
    ]
}

/// Discharges `spec`'s proof of `module` with no deadline and panics with
/// the first verdict that is not `proved`.
#[cfg(test)]
fn assert_proves_for_all_widths(module: Module, spec: DesignSpec) {
    use chicala_verify::{discharge_all, Verdict};
    let job = ProofJob::new(&module, spec).unwrap_or_else(|e| panic!("{e}"));
    let unproved =
        discharge_all(&job.env, &job.spec, &job.vcs, None).find(|v| v.verdict != Verdict::Proved);
    if let Some(v) = unproved {
        panic!("{v}");
    }
}
