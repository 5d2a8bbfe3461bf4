//! Modular protection-feature configuration.
//!
//! "Covirt implements a configurable and modular approach to resource
//! protection that allows runtime configuration of hypervisor protection
//! features" — an operator enables only the features whose overhead is
//! acceptable for the workload. These are the configurations the
//! evaluation sweeps (native / no features / memory / memory+IPI).

use std::fmt;

/// How IPI protection is implemented (Section IV-C).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum IpiMode {
    /// Full APIC virtualization: every ICR write traps *and* every
    /// incoming interrupt forces a VM exit (the VMX requirement).
    Vapic,
    /// Posted Interrupt Vectors: ICR writes still trap for whitelisting,
    /// but incoming interrupts are delivered exit-lessly via the PIR.
    Posted,
}

/// The feature set of one Covirt instance.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CovirtConfig {
    /// EPT-based memory protection.
    pub memory: bool,
    /// IPI transmission protection (and its implementation).
    pub ipi: Option<IpiMode>,
    /// MSR access protection (whitelist enforced via MSR bitmaps).
    pub msr: bool,
    /// I/O-port protection (sensitive ports trap).
    pub io: bool,
    /// Runtime tracing: enable the node's flight recorder for this run.
    pub trace: bool,
}

impl CovirtConfig {
    /// Hypervisor interposed, no protection features — the paper's
    /// "no-feature" configuration that quantifies the baseline cost of
    /// virtualization itself.
    pub const NONE: CovirtConfig = CovirtConfig {
        memory: false,
        ipi: None,
        msr: false,
        io: false,
        trace: false,
    };

    /// Memory protection only.
    pub const MEM: CovirtConfig = CovirtConfig {
        memory: true,
        ipi: None,
        msr: false,
        io: false,
        trace: false,
    };

    /// Memory + IPI protection (full APIC virtualization) — the paper's
    /// "all features" configuration for the main evaluation.
    pub const MEM_IPI: CovirtConfig = CovirtConfig {
        memory: true,
        ipi: Some(IpiMode::Vapic),
        msr: false,
        io: false,
        trace: false,
    };

    /// Memory + IPI protection using posted interrupts.
    pub const MEM_IPI_PIV: CovirtConfig = CovirtConfig {
        memory: true,
        ipi: Some(IpiMode::Posted),
        msr: false,
        io: false,
        trace: false,
    };

    /// Everything on (memory, IPI via PIV, MSR, I/O).
    pub const FULL: CovirtConfig = CovirtConfig {
        memory: true,
        ipi: Some(IpiMode::Posted),
        msr: true,
        io: true,
        trace: false,
    };

    /// Whether *any* feature needing the EPT is on (several features rely
    /// on memory protection being enabled, as the paper notes).
    pub fn needs_ept(&self) -> bool {
        self.memory
    }

    /// The same feature set with the flight recorder enabled.
    pub fn with_trace(mut self) -> CovirtConfig {
        self.trace = true;
        self
    }

    /// Whether incoming hardware interrupts force VM exits.
    ///
    /// Always true under Covirt: the minimal hypervisor keeps pin-based
    /// external-interrupt exiting enabled in every configuration (it must
    /// retain control of the hardware interrupt path for abort handling,
    /// and VMX requires it for posted-interrupt processing). Posted mode
    /// exempts only the *notification vector*, which the hardware handles
    /// without an exit — "while PIV allows exitless IPIs, it still
    /// requires exits for all external interrupts generated by hardware
    /// devices" (Section IV-C). This is what makes the paper's "baseline
    /// performance penalty ... that stays roughly constant regardless of
    /// how those features are configured" (HPCG, Section V-B) emerge.
    pub fn exits_on_external_interrupts(&self) -> bool {
        true
    }

    /// Short label used in tables and figures.
    pub fn label(&self) -> String {
        let mut parts = Vec::new();
        if self.memory {
            parts.push("mem");
        }
        match self.ipi {
            Some(IpiMode::Vapic) => parts.push("ipi"),
            Some(IpiMode::Posted) => parts.push("ipi-piv"),
            None => {}
        }
        if self.msr {
            parts.push("msr");
        }
        if self.io {
            parts.push("io");
        }
        if parts.is_empty() {
            "covirt-none".to_owned()
        } else {
            format!("covirt-{}", parts.join("+"))
        }
    }
}

impl fmt::Display for CovirtConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.label())
    }
}

/// An evaluation configuration: native Pisces, or Covirt with a feature
/// set. Every benchmark in the harness sweeps a list of these.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ExecMode {
    /// Plain Pisces co-kernel, no hypervisor (the paper's baseline).
    Native,
    /// Covirt interposed with the given feature set.
    Covirt(CovirtConfig),
}

impl ExecMode {
    /// The four configurations the paper's figures sweep.
    pub fn paper_sweep() -> [ExecMode; 4] {
        [
            ExecMode::Native,
            ExecMode::Covirt(CovirtConfig::NONE),
            ExecMode::Covirt(CovirtConfig::MEM),
            ExecMode::Covirt(CovirtConfig::MEM_IPI),
        ]
    }

    /// Label for tables/figures.
    pub fn label(&self) -> String {
        match self {
            ExecMode::Native => "native".to_owned(),
            ExecMode::Covirt(c) => c.label(),
        }
    }

    /// The Covirt feature set, if any.
    pub fn config(&self) -> Option<CovirtConfig> {
        match self {
            ExecMode::Native => None,
            ExecMode::Covirt(c) => Some(*c),
        }
    }
}

impl fmt::Display for ExecMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels() {
        assert_eq!(CovirtConfig::NONE.label(), "covirt-none");
        assert_eq!(CovirtConfig::MEM.label(), "covirt-mem");
        assert_eq!(CovirtConfig::MEM_IPI.label(), "covirt-mem+ipi");
        assert_eq!(CovirtConfig::MEM_IPI_PIV.label(), "covirt-mem+ipi-piv");
        assert_eq!(CovirtConfig::FULL.label(), "covirt-mem+ipi-piv+msr+io");
        assert_eq!(ExecMode::Native.label(), "native");
    }

    #[test]
    fn interrupt_exit_semantics() {
        assert!(CovirtConfig::MEM_IPI.exits_on_external_interrupts());
        assert!(CovirtConfig::MEM_IPI_PIV.exits_on_external_interrupts());
        assert!(CovirtConfig::MEM.exits_on_external_interrupts());
        assert!(CovirtConfig::NONE.exits_on_external_interrupts());
    }

    #[test]
    fn paper_sweep_shape() {
        let sweep = ExecMode::paper_sweep();
        assert_eq!(sweep[0], ExecMode::Native);
        assert_eq!(sweep[3].config().unwrap(), CovirtConfig::MEM_IPI);
    }
}
