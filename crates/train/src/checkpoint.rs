//! Periodic training checkpoints with atomic writes and keep-K pruning.
//!
//! A checkpoint captures *everything* a rank needs to resume the training
//! loop bitwise-identically: network parameters, full optimizer state
//! (step counter + moment buffers), the batch sampler's RNG position at
//! the start of the current epoch plus the batch offset within it, the
//! partial epoch loss sums, and the rank-0 epoch logs. Files are written
//! per rank per step (`ckpt-step00000040-rank0.mfc`) via a temp-file +
//! rename so a crash mid-write never leaves a truncated checkpoint with a
//! valid name, and only the newest `keep` checkpoints per rank survive.
//!
//! Resume negotiation is collective: each rank offers its newest step and
//! the cluster takes the minimum, so after a crash that interrupted some
//! ranks mid-save, everyone restarts from the newest step *all* ranks
//! have (see [`crate::trainer::train_ddp_resumable`]).

use crate::trainer::EpochLog;
use mf_data::SamplerState;
use mf_nn::wire::{
    bad, bytes_left, read_f64, read_str, read_tensor, read_u64, write_f64, write_str, write_tensor,
    write_u64,
};
use mf_nn::SdNet;
use mf_opt::OptimizerState;
use std::io::{self, Read, Seek, Write};
use std::path::{Path, PathBuf};

const MAGIC: &[u8; 8] = b"MFCKPT01";

/// Where and how often to checkpoint a training run.
#[derive(Clone, Debug)]
pub struct CheckpointConfig {
    /// Directory for checkpoint files (created on first save).
    pub dir: PathBuf,
    /// Save every this many optimizer steps.
    pub every_steps: usize,
    /// Newest checkpoints to retain per rank (older ones are pruned).
    pub keep: usize,
}

impl CheckpointConfig {
    /// Checkpoint into `dir` every `every_steps` steps, keeping the 2
    /// newest files per rank.
    pub fn new(dir: impl Into<PathBuf>, every_steps: usize) -> Self {
        let cfg = Self {
            dir: dir.into(),
            every_steps,
            keep: 2,
        };
        cfg.validate();
        cfg
    }

    /// Panics, naming the field, on a zero: `every_steps: 0` is never due
    /// (no checkpoint is ever written), and `keep: 0` prunes the file a
    /// save has just renamed into place (a resume never finds one). The
    /// fields are public, so a run checks a literal too, before any rank
    /// starts.
    pub(crate) fn validate(&self) {
        for (field, n) in [("every_steps", self.every_steps), ("keep", self.keep)] {
            assert!(
                n > 0,
                "CheckpointConfig::{field} must be at least 1 (got 0)"
            );
        }
    }
}

/// Complete per-rank training state at a step boundary.
#[derive(Clone, Debug)]
pub struct TrainState {
    /// Optimizer steps completed (the next step to run).
    pub step: usize,
    /// Zero-based epoch the run is inside.
    pub epoch: usize,
    /// Batches already consumed in this epoch.
    pub batch_in_epoch: usize,
    /// Cumulative training wall-clock seconds.
    pub train_seconds: f64,
    /// Partial sum of data losses within the current epoch.
    pub data_loss_sum: f64,
    /// Partial sum of (weighted) PDE losses within the current epoch.
    pub pde_loss_sum: f64,
    /// Network parameters.
    pub net: SdNet,
    /// Optimizer snapshot (moment buffers + step counter).
    pub opt: OptimizerState,
    /// Sampler snapshot taken at the *start* of `epoch`, so replaying
    /// `epoch()` regenerates the identical batch list to skip into.
    pub sampler_at_epoch_start: SamplerState,
    /// Epoch logs accumulated so far (rank 0 carries them; other ranks
    /// store an empty list).
    pub logs: Vec<EpochLog>,
}

impl TrainState {
    /// Serialize to a writer.
    pub fn save_to(&self, w: &mut impl Write) -> io::Result<()> {
        w.write_all(MAGIC)?;
        write_u64(w, self.step as u64)?;
        write_u64(w, self.epoch as u64)?;
        write_u64(w, self.batch_in_epoch as u64)?;
        write_f64(w, self.train_seconds)?;
        write_f64(w, self.data_loss_sum)?;
        write_f64(w, self.pde_loss_sum)?;
        self.net.save_to(w)?;
        write_str(w, &self.opt.kind)?;
        write_u64(w, self.opt.t as u64)?;
        write_u64(w, self.opt.scalars.len() as u64)?;
        for &s in &self.opt.scalars {
            write_f64(w, s)?;
        }
        write_u64(w, self.opt.tensors.len() as u64)?;
        for t in &self.opt.tensors {
            write_tensor(w, t)?;
        }
        write_u64(w, self.sampler_at_epoch_start.batch_size as u64)?;
        write_u64(w, self.sampler_at_epoch_start.qd as u64)?;
        write_u64(w, self.sampler_at_epoch_start.qc as u64)?;
        write_u64(w, self.sampler_at_epoch_start.rng_words.len() as u64)?;
        for &word in &self.sampler_at_epoch_start.rng_words {
            write_u64(w, word as u64)?;
        }
        write_u64(w, self.logs.len() as u64)?;
        for l in &self.logs {
            write_u64(w, l.epoch as u64)?;
            write_f64(w, l.data_loss)?;
            write_f64(w, l.pde_loss)?;
            write_f64(w, l.val_mse)?;
            write_f64(w, l.seconds)?;
        }
        Ok(())
    }

    /// Deserialize a state saved with [`TrainState::save_to`]. The
    /// embedded network is read by [`SdNet::load_from`], so it may not
    /// declare more parameters than the bytes left in `r`.
    pub fn load_from(r: &mut (impl Read + Seek)) -> io::Result<Self> {
        let mut magic = [0u8; 8];
        r.read_exact(&mut magic)?;
        if &magic != MAGIC {
            return Err(bad("not a Mosaic Flow checkpoint (bad magic)"));
        }
        let step = read_u64(r)? as usize;
        let epoch = read_u64(r)? as usize;
        let batch_in_epoch = read_u64(r)? as usize;
        let train_seconds = read_f64(r)?;
        let data_loss_sum = read_f64(r)?;
        let pde_loss_sum = read_f64(r)?;
        let net = SdNet::load_from(r)?;
        let kind = read_str(r)?;
        let t = read_u64(r)? as usize;
        let n_scalars = read_u64(r)? as usize;
        if n_scalars > 64 {
            return Err(bad("optimizer scalar count out of range"));
        }
        let mut scalars = Vec::with_capacity(n_scalars);
        for _ in 0..n_scalars {
            scalars.push(read_f64(r)?);
        }
        // A stored tensor is at least its two shape words.
        let n_tensors = read_u64(r)?;
        if n_tensors.saturating_mul(16) > bytes_left(r)? {
            return Err(bad("optimizer tensor count exceeds the file"));
        }
        let mut tensors = Vec::with_capacity(n_tensors as usize);
        for _ in 0..n_tensors {
            tensors.push(read_tensor(r)?);
        }
        let batch_size = read_u64(r)? as usize;
        let qd = read_u64(r)? as usize;
        let qc = read_u64(r)? as usize;
        let n_words = read_u64(r)? as usize;
        if n_words > 256 {
            return Err(bad("sampler RNG word count out of range"));
        }
        let mut rng_words = Vec::with_capacity(n_words);
        for _ in 0..n_words {
            rng_words.push(read_u64(r)? as u32);
        }
        // A stored log is five 8-byte words.
        let n_logs = read_u64(r)?;
        if n_logs.saturating_mul(40) > bytes_left(r)? {
            return Err(bad("log count exceeds the file"));
        }
        let mut logs = Vec::with_capacity(n_logs as usize);
        for _ in 0..n_logs {
            logs.push(EpochLog {
                epoch: read_u64(r)? as usize,
                data_loss: read_f64(r)?,
                pde_loss: read_f64(r)?,
                val_mse: read_f64(r)?,
                seconds: read_f64(r)?,
            });
        }
        Ok(Self {
            step,
            epoch,
            batch_in_epoch,
            train_seconds,
            data_loss_sum,
            pde_loss_sum,
            net,
            opt: OptimizerState {
                kind,
                t,
                scalars,
                tensors,
            },
            sampler_at_epoch_start: SamplerState {
                batch_size,
                qd,
                qc,
                rng_words,
            },
            logs,
        })
    }
}

/// File name of the checkpoint for (`step`, `rank`).
pub fn checkpoint_file(dir: &Path, step: usize, rank: usize) -> PathBuf {
    dir.join(format!("ckpt-step{step:08}-rank{rank}.mfc"))
}

/// Atomically write `state` for `rank`, then prune to `cfg.keep` files.
///
/// The write goes to a `.tmp` sibling first and is renamed into place, so
/// readers never observe a partially written checkpoint under its final
/// name.
pub fn save_checkpoint(
    cfg: &CheckpointConfig,
    rank: usize,
    state: &TrainState,
) -> io::Result<PathBuf> {
    std::fs::create_dir_all(&cfg.dir)?;
    let path = checkpoint_file(&cfg.dir, state.step, rank);
    let tmp = path.with_extension("mfc.tmp");
    {
        let mut f = io::BufWriter::new(std::fs::File::create(&tmp)?);
        state.save_to(&mut f)?;
        f.flush()?;
    }
    std::fs::rename(&tmp, &path)?;
    prune(cfg, rank)?;
    Ok(path)
}

/// Load the checkpoint for (`step`, `rank`).
pub fn load_checkpoint(cfg: &CheckpointConfig, step: usize, rank: usize) -> io::Result<TrainState> {
    let path = checkpoint_file(&cfg.dir, step, rank);
    let mut f = io::BufReader::new(std::fs::File::open(path)?);
    TrainState::load_from(&mut f)
}

/// Steps for which `rank` has a (fully written) checkpoint, ascending.
pub fn available_steps(cfg: &CheckpointConfig, rank: usize) -> Vec<usize> {
    let suffix = format!("-rank{rank}.mfc");
    let mut steps = Vec::new();
    let Ok(entries) = std::fs::read_dir(&cfg.dir) else {
        return steps;
    };
    for entry in entries.flatten() {
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        if let Some(mid) = name
            .strip_prefix("ckpt-step")
            .and_then(|s| s.strip_suffix(&suffix))
        {
            if let Ok(step) = mid.parse::<usize>() {
                steps.push(step);
            }
        }
    }
    steps.sort_unstable();
    steps
}

/// Newest checkpointed step for `rank`, if any.
pub fn latest_step(cfg: &CheckpointConfig, rank: usize) -> Option<usize> {
    available_steps(cfg, rank).pop()
}

fn prune(cfg: &CheckpointConfig, rank: usize) -> io::Result<()> {
    let steps = available_steps(cfg, rank);
    if steps.len() > cfg.keep {
        for &old in &steps[..steps.len() - cfg.keep] {
            let _ = std::fs::remove_file(checkpoint_file(&cfg.dir, old, rank));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use mf_data::BatchSampler;
    use mf_nn::SdNetConfig;
    use mf_opt::{Adam, Optimizer};
    use mf_tensor::Tensor;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn tiny_state(step: usize) -> TrainState {
        let mut cfg = SdNetConfig::small(16);
        cfg.conv_channels = vec![2];
        cfg.hidden = vec![8];
        let net = SdNet::new(cfg, &mut ChaCha8Rng::seed_from_u64(7));
        let mut opt = Adam::new();
        let mut p = [Tensor::scalar(0.0)];
        opt.step(p.iter_mut(), &[Tensor::scalar(1.0)], 0.01);
        TrainState {
            step,
            epoch: 1,
            batch_in_epoch: 3,
            train_seconds: 1.5,
            data_loss_sum: 0.25,
            pde_loss_sum: 0.125,
            net,
            opt: opt.export_state(),
            sampler_at_epoch_start: BatchSampler::new(2, 4, 4, 11).state(),
            logs: vec![EpochLog {
                epoch: 0,
                data_loss: 0.5,
                pde_loss: 0.25,
                val_mse: 0.1,
                seconds: 0.7,
            }],
        }
    }

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("mf_ckpt_test_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    #[test]
    fn state_roundtrips_bitwise() {
        let state = tiny_state(40);
        let mut buf = Vec::new();
        state.save_to(&mut buf).unwrap();
        let loaded = TrainState::load_from(&mut io::Cursor::new(&buf)).unwrap();
        assert_eq!(loaded.step, 40);
        assert_eq!(loaded.epoch, 1);
        assert_eq!(loaded.batch_in_epoch, 3);
        assert_eq!(loaded.train_seconds, 1.5);
        assert_eq!(loaded.net.params.flatten(), state.net.params.flatten());
        assert_eq!(loaded.opt, state.opt);
        assert_eq!(loaded.sampler_at_epoch_start, state.sampler_at_epoch_start);
        assert_eq!(loaded.logs.len(), 1);
        assert_eq!(loaded.logs[0].val_mse, 0.1);
        // A second serialization is byte-identical (format is canonical).
        let mut buf2 = Vec::new();
        loaded.save_to(&mut buf2).unwrap();
        assert_eq!(buf, buf2);
    }

    #[test]
    fn rejects_bad_magic_and_truncation() {
        let mut buf = Vec::new();
        tiny_state(1).save_to(&mut buf).unwrap();
        let mut broken = buf.clone();
        broken[0] = b'X';
        assert!(TrainState::load_from(&mut io::Cursor::new(&broken)).is_err());
        // Torn inside the network, after a header whose one hidden width
        // (at 104) now declares millions of parameters, which the bytes left
        // cannot hold: refused before the network is built.
        let mut torn = buf[..144].to_vec();
        torn[104..112].copy_from_slice(&(1u64 << 16).to_le_bytes());
        let err = TrainState::load_from(&mut io::Cursor::new(&torn)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
        buf.truncate(buf.len() - 7);
        assert!(TrainState::load_from(&mut io::Cursor::new(&buf)).is_err());
    }

    #[test]
    fn save_prunes_to_keep_and_latest_wins() {
        let dir = tmpdir("prune");
        let cfg = CheckpointConfig {
            dir: dir.clone(),
            every_steps: 10,
            keep: 2,
        };
        for step in [10, 20, 30] {
            save_checkpoint(&cfg, 0, &tiny_state(step)).unwrap();
        }
        assert_eq!(available_steps(&cfg, 0), vec![20, 30]);
        assert_eq!(latest_step(&cfg, 0), Some(30));
        // Another rank's files are independent.
        assert_eq!(latest_step(&cfg, 1), None);
        save_checkpoint(&cfg, 1, &tiny_state(20)).unwrap();
        assert_eq!(available_steps(&cfg, 0), vec![20, 30]);
        assert_eq!(latest_step(&cfg, 1), Some(20));
        let loaded = load_checkpoint(&cfg, 30, 0).unwrap();
        assert_eq!(loaded.step, 30);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn no_tmp_files_survive_a_save() {
        let dir = tmpdir("tmpclean");
        let cfg = CheckpointConfig::new(&dir, 5);
        save_checkpoint(&cfg, 0, &tiny_state(5)).unwrap();
        let leftover: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .flatten()
            .filter(|e| e.file_name().to_string_lossy().ends_with(".tmp"))
            .collect();
        assert!(leftover.is_empty(), "tmp files left behind: {leftover:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
