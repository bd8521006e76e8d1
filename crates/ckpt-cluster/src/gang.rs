//! Gang scheduling via checkpoint-based safe preemption.
//!
//! The introduction lists gang scheduling among checkpointing's uses, and
//! Section 1 calls out "*safe* pre-emption by another process" as an
//! autonomic capability. This module time-slices whole jobs over the same
//! nodes: the outgoing gang is checkpointed (so its state is durable — a
//! crash during the other gang's slot cannot lose it) and frozen; the
//! incoming gang thaws and runs.

use crate::cluster::Cluster;
use crate::mpi::MpiJob;
use crate::shard::ShardedCoordinator;
use ckpt_core::tracker::TrackerKind;
use simos::types::{SimError, SimResult};

/// A gang: one parallel job plus its coordinated-checkpoint driver.
pub struct Gang {
    pub job: MpiJob,
    pub coord: ShardedCoordinator,
    pub supersteps_run: u64,
}

impl Gang {
    pub fn new(job: MpiJob, tracker: TrackerKind) -> Self {
        let key = format!("gang-{}", job.name);
        Gang {
            job,
            coord: ShardedCoordinator::per_rank(&key, tracker),
            supersteps_run: 0,
        }
    }
}

/// The gang scheduler: round-robins jobs over the cluster, `quantum`
/// supersteps at a time, with a safe-preemption checkpoint at every
/// switch.
pub struct GangScheduler {
    pub gangs: Vec<Gang>,
    pub quantum_supersteps: u64,
    pub switches: u64,
}

impl GangScheduler {
    pub fn new(quantum_supersteps: u64) -> Self {
        GangScheduler {
            gangs: Vec::new(),
            quantum_supersteps,
            switches: 0,
        }
    }

    pub fn add(&mut self, gang: Gang) {
        self.gangs.push(gang);
    }

    fn freeze_gang(cluster: &mut Cluster, gang: &Gang) -> SimResult<()> {
        for r in &gang.job.ranks {
            let k = cluster
                .node(r.node)
                .kernel()
                .ok_or_else(|| SimError::Usage(format!("{} down", r.node)))?;
            k.freeze_process(r.pid)?;
        }
        Ok(())
    }

    fn thaw_gang(cluster: &mut Cluster, gang: &Gang) -> SimResult<()> {
        for r in &gang.job.ranks {
            let k = cluster
                .node(r.node)
                .kernel()
                .ok_or_else(|| SimError::Usage(format!("{} down", r.node)))?;
            k.thaw_process(r.pid)?;
        }
        Ok(())
    }

    /// Run all gangs round-robin until each has completed
    /// `target_supersteps`. Returns per-gang completion order.
    pub fn run(
        &mut self,
        cluster: &mut Cluster,
        target_supersteps: u64,
    ) -> SimResult<Vec<usize>> {
        // Everyone starts frozen except the first runnable gang.
        for gang in &self.gangs {
            Self::freeze_gang(cluster, gang)?;
        }
        let mut completion_order = Vec::new();
        let mut done = vec![false; self.gangs.len()];
        while done.iter().any(|d| !d) {
            #[allow(clippy::needless_range_loop)] // i indexes two parallel vecs
            for i in 0..self.gangs.len() {
                if done[i] {
                    continue;
                }
                Self::thaw_gang(cluster, &self.gangs[i])?;
                let gang = &mut self.gangs[i];
                for _ in 0..self.quantum_supersteps {
                    if gang.job.completed_supersteps() >= target_supersteps {
                        break;
                    }
                    gang.job
                        .superstep(cluster)
                        .map_err(|e| SimError::Usage(format!("gang interrupted: {e:?}")))?;
                    gang.supersteps_run += 1;
                }
                if gang.job.completed_supersteps() >= target_supersteps {
                    done[i] = true;
                    completion_order.push(i);
                    // Leave it stopped; it is finished.
                    Self::freeze_gang(cluster, &self.gangs[i])?;
                } else {
                    // Safe preemption: checkpoint before yielding the
                    // nodes.
                    let gang = &mut self.gangs[i];
                    gang.coord.checkpoint(cluster, &gang.job)?;
                    self.switches += 1;
                    Self::freeze_gang(cluster, &self.gangs[i])?;
                }
            }
        }
        Ok(completion_order)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::FailureConfig;
    use simos::apps::{AppParams, NativeKind};
    use simos::cost::CostModel;

    fn launch_gang(cluster: &mut Cluster, name: &str, seed: u64) -> Gang {
        let mut params = AppParams::small();
        params.seed = seed;
        let job = MpiJob::launch(
            cluster,
            name,
            2,
            NativeKind::SparseRandom,
            params,
            4,
            16 * 1024,
        )
        .unwrap();
        Gang::new(job, TrackerKind::KernelPage)
    }

    #[test]
    fn two_gangs_share_nodes_and_both_finish() {
        let mut c = Cluster::new(2, CostModel::circa_2005(), FailureConfig::none());
        let a = launch_gang(&mut c, "A", 1);
        let b = launch_gang(&mut c, "B", 2);
        let mut sched = GangScheduler::new(3);
        sched.add(a);
        sched.add(b);
        let order = sched.run(&mut c, 9).unwrap();
        assert_eq!(order.len(), 2);
        assert!(sched.switches >= 4, "expected several safe preemptions");
        for gang in &sched.gangs {
            assert_eq!(gang.job.completed_supersteps(), 9);
        }
    }

    #[test]
    fn preemption_checkpoints_make_state_durable() {
        let mut c = Cluster::new(2, CostModel::circa_2005(), FailureConfig::none());
        let a = launch_gang(&mut c, "A", 1);
        let b = launch_gang(&mut c, "B", 2);
        let mut sched = GangScheduler::new(2);
        sched.add(a);
        sched.add(b);
        sched.run(&mut c, 4).unwrap();
        // Every preemption produced a coordinated checkpoint.
        let total_ckpts: usize = sched.gangs.iter().map(|g| g.coord.outcomes.len()).sum();
        assert!(total_ckpts as u64 >= sched.switches);
    }

    #[test]
    fn gangs_do_not_interfere_while_preempted() {
        // A frozen gang's ranks make no progress during the other's slot.
        let mut c = Cluster::new(2, CostModel::circa_2005(), FailureConfig::none());
        let a = launch_gang(&mut c, "A", 1);
        let b = launch_gang(&mut c, "B", 2);
        let mut sched = GangScheduler::new(1);
        sched.add(a);
        sched.add(b);
        // Run one quantum manually: freeze both, thaw A, superstep A.
        for g in &sched.gangs {
            GangScheduler::freeze_gang(&mut c, g).unwrap();
        }
        GangScheduler::thaw_gang(&mut c, &sched.gangs[0]).unwrap();
        let b_work_before: Vec<u64> = sched.gangs[1]
            .job
            .ranks
            .iter()
            .map(|r| {
                c.node(r.node)
                    .kernel()
                    .unwrap()
                    .process(r.pid)
                    .unwrap()
                    .work_done
            })
            .collect();
        sched.gangs[0].job.superstep(&mut c).unwrap();
        let b_work_after: Vec<u64> = sched.gangs[1]
            .job
            .ranks
            .iter()
            .map(|r| {
                c.node(r.node)
                    .kernel()
                    .unwrap()
                    .process(r.pid)
                    .unwrap()
                    .work_done
            })
            .collect();
        assert_eq!(b_work_before, b_work_after, "frozen gang must not run");
    }
}
