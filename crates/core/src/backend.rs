//! Delivery granularity for callers that time analyzers from outside.
//!
//! Every analyzer in this crate has one implementation: its
//! [`TraceSink::retire_block`], with `retire` delivering a one-instruction
//! block. [`Backend`] only says how a caller hands the stream over —
//! whole blocks, or one instruction per call through [`PerInst`] — and
//! both produce the same bits. The profiling pipeline always delivers
//! blocks; the per-instruction oracle the analyzers are checked against
//! lives in `tests/oracle`.

use tinyisa::{DynInst, TraceSink};

/// How a caller delivers retired instructions to the analyzers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Backend {
    /// One [`TraceSink::retire`] call per instruction: the same code as
    /// [`Backend::Batch`], fed one-instruction blocks.
    Ref,
    /// Whole [`TraceSink::retire_block`] calls, as the VM delivers them.
    #[default]
    Batch,
}

impl Backend {
    /// Read the backend from `MICA_BACKEND` (`ref` or `batch`); unset or
    /// empty means [`Backend::Batch`].
    ///
    /// # Panics
    ///
    /// Panics on an unrecognized value: a typo silently falling back to
    /// the default would mislabel any measurement made under it.
    pub fn from_env() -> Backend {
        let v = std::env::var("MICA_BACKEND").unwrap_or_default();
        match v.trim().to_ascii_lowercase().as_str() {
            "" | "batch" => Backend::Batch,
            "ref" | "reference" => Backend::Ref,
            _ => panic!("MICA_BACKEND={v:?} is not a backend (use \"ref\" or \"batch\")"),
        }
    }

    /// The canonical lowercase name (`"ref"` / `"batch"`).
    pub fn name(self) -> &'static str {
        match self {
            Backend::Ref => "ref",
            Backend::Batch => "batch",
        }
    }
}

/// Unbundles every delivered block into single [`TraceSink::retire`] calls
/// on the wrapped sink: how [`Backend::Ref`] is delivered under a
/// block-delivering [`tinyisa::Vm`].
#[derive(Debug, Clone, Default)]
pub struct PerInst<S>(pub S);

impl<S: TraceSink> TraceSink for PerInst<S> {
    fn retire(&mut self, inst: &DynInst) {
        self.0.retire(inst);
    }

    fn retire_block(&mut self, block: &[DynInst]) {
        for inst in block {
            self.0.retire(inst);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tinyisa::InstClass;

    #[test]
    fn default_backend_is_batch() {
        assert_eq!(Backend::default(), Backend::Batch);
        assert_eq!(Backend::Batch.name(), "batch");
        assert_eq!(Backend::Ref.name(), "ref");
    }

    #[test]
    fn per_inst_unbundles_blocks() {
        /// Counts calls: one-instruction `retire`s and block deliveries.
        #[derive(Default)]
        struct Calls {
            retires: u64,
            blocks: u64,
        }
        impl TraceSink for Calls {
            fn retire(&mut self, _inst: &DynInst) {
                self.retires += 1;
            }
            fn retire_block(&mut self, _block: &[DynInst]) {
                self.blocks += 1;
            }
        }
        let inst = DynInst {
            pc: 0,
            class: InstClass::IntAlu,
            dst: None,
            srcs: [None; 3],
            mem: None,
            ctrl: None,
        };
        let mut sink = PerInst(Calls::default());
        sink.retire_block(&[inst; 5]);
        sink.retire(&inst);
        assert_eq!((sink.0.retires, sink.0.blocks), (6, 0));
    }
}
