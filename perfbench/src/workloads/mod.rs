//! The four workloads.  Each run of one is a number of rounds; a round sets
//! up a fresh cluster (timed as `setup_s`) and drives the same checked ops
//! in the same order, so op counts per round are fixed and `--seconds` only
//! chooses how many rounds to run.

mod chase;
mod codeship;
mod data_plane;

use crate::harness::{Ctx, Measured};

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Workload {
    Chase,
    Inject,
    Codeship,
    Lossy,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Self> {
        Some(match name {
            "chase" => Workload::Chase,
            "inject" => Workload::Inject,
            "codeship" => Workload::Codeship,
            "lossy" => Workload::Lossy,
            _ => return None,
        })
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::Chase => "chase",
            Workload::Inject => "inject",
            Workload::Codeship => "codeship",
            Workload::Lossy => "lossy",
        }
    }

    pub fn backend(self) -> &'static str {
        match self {
            Workload::Chase => "threads",
            _ => "socket",
        }
    }

    /// What `op1`..`op3` and the windowed arm are in this workload.
    pub fn arms(self) -> [&'static str; 4] {
        match self {
            Workload::Chase => ["xrdma_chase", "am_chase", "get_chase", "xrdma_chase_window"],
            Workload::Inject => ["tsi", "get", "put", "tsi_window"],
            Workload::Codeship => ["cold_bitcode", "cold_binary", "warm", "cold_bitcode_window"],
            Workload::Lossy => ["tsi", "get", "put", "get_window"],
        }
    }

    /// Seconds one round takes on a 2-vCPU Xeon host, set-up included, with
    /// a tenth added so a run ends within its `--seconds` on that host.
    fn round_seconds(self) -> f64 {
        match self {
            Workload::Chase => 0.8,
            Workload::Inject => 0.8,
            Workload::Codeship => 0.4,
            Workload::Lossy => 1.5,
        }
    }

    /// Rounds for a run of `seconds`: a pure function of the argument, so
    /// equal arguments always mean equal work.
    pub fn rounds(self, seconds: u64) -> usize {
        ((seconds as f64 / self.round_seconds()).round() as usize).max(2)
    }

    pub fn run(self, ctx: &mut Ctx, m: &mut Measured) -> tc_core::Result<()> {
        match self {
            Workload::Chase => chase::run(ctx, m),
            Workload::Inject => data_plane::run(ctx, m, data_plane::Kind::Inject),
            Workload::Codeship => codeship::run(ctx, m),
            Workload::Lossy => data_plane::run(ctx, m, data_plane::Kind::Lossy),
        }
    }
}
