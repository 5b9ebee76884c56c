//! Durable catalog storage: WAL + checkpoints + crash recovery.
//!
//! The in-memory incremental catalog ([`crate::index::CatalogIndex`]
//! fed through a [`crate::delta_buffer::DeltaBuffer`]) forfeits all of
//! its work if the purge service dies mid-replay — the exact failure
//! mode Robinhood's durable, changelog-fed policy engine exists to
//! survive on production Lustre systems. This module adds that
//! durability as an opt-in layer:
//!
//! * [`wal`] — an append-only, length-prefixed, CRC32-checksummed log
//!   of delta batches and flush marks, written *before* the in-memory
//!   state changes;
//! * [`checkpoint`] — periodic compact cuts of the full
//!   `(index, buffer)` pair with a footer checksum, two generations
//!   retained;
//! * `codec` — the one binary record layout for [`crate::Delta`] that WAL
//!   batches, checkpoints and metadata snapshots share, and the one
//!   opener of sealed (magic, version, CRC32 footer) images;
//! * [`recovery`] — newest valid checkpoint + WAL-tail replay,
//!   truncating at the first torn record;
//! * [`checksum`] — the dependency-free CRC32 every format shares;
//! * [`fault`] — the [`CrashFs`] injected-fault shim the crash-point
//!   tests drive.
//!
//! [`DurableCatalog`] ties the pieces together for the engine: open
//! (recover or cold-start), log batches and flush marks write-ahead,
//! cut checkpoints every N triggers. The correctness contract — proven
//! by `tests/integration_wal_recovery.rs` and the oracle's
//! `CrashRecover` op — is that dropping the live state at *any* point
//! and recovering from disk yields a pair whose every observable
//! (contents, totals, pending set, raw-pending count) matches the
//! live one, so the remaining replay is bitwise-identical.

pub mod checkpoint;
pub mod checksum;
pub(crate) mod codec;
pub mod fault;
pub mod recovery;
pub mod wal;

pub use checkpoint::{load_checkpoint, write_checkpoint, CheckpointHeader, LoadedCheckpoint};
pub use checksum::{crc32, Crc32};
pub use fault::{CrashFs, InjectedCrash, INJECTED_CRASH_MSG};
pub use recovery::{recover, RecoveredState, RecoveryStats};
pub use wal::{encode_record, scan_wal, scan_wal_bytes, Wal, WalPayload, WalRecord, WalScan};

use crate::changelog::Delta;
use crate::delta_buffer::DeltaBuffer;
use crate::exemption::ExemptionList;
use crate::index::CatalogIndex;
use crate::vfs::VirtualFs;
use std::path::PathBuf;

/// When WAL appends and checkpoints reach the platter.
///
/// `Always` fsyncs after every append and checkpoint — the no-data-loss
/// configuration, at one `fdatasync` round-trip per boundary. `Never`
/// leaves flushing to the OS page cache: a *process* crash loses
/// nothing (the kernel still holds the writes), a *power* failure can
/// lose the un-synced tail — which recovery then truncates cleanly, so
/// the catalog falls back to an earlier consistent cut rather than
/// corrupting. See DESIGN.md §11 for the trade-off discussion.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FsyncPolicy {
    Always,
    #[default]
    Never,
}

/// Everything the engine needs to run the catalog durably.
#[derive(Debug, Clone)]
pub struct DurabilityConfig {
    /// Directory holding `wal.log` and `checkpoint-*.ckpt` (created on
    /// open).
    pub wal_dir: PathBuf,
    /// Fsync policy for WAL appends and checkpoint writes.
    pub fsync: FsyncPolicy,
    /// Cut a checkpoint every this many retention triggers.
    pub checkpoint_every_triggers: u32,
    /// Crash-point injection for the fault tests; `None` in production.
    pub injected_crash: Option<InjectedCrash>,
}

impl DurabilityConfig {
    /// Durability rooted at `wal_dir` with the defaults: no fsync,
    /// checkpoint every 4 triggers, no injected crash.
    pub fn new(wal_dir: impl Into<PathBuf>) -> Self {
        DurabilityConfig {
            wal_dir: wal_dir.into(),
            fsync: FsyncPolicy::default(),
            checkpoint_every_triggers: 4,
            injected_crash: None,
        }
    }

    pub fn with_fsync(mut self, fsync: FsyncPolicy) -> Self {
        self.fsync = fsync;
        self
    }

    pub fn with_checkpoint_every(mut self, triggers: u32) -> Self {
        self.checkpoint_every_triggers = triggers.max(1);
        self
    }

    pub fn with_injected_crash(mut self, crash: InjectedCrash) -> Self {
        self.injected_crash = Some(crash);
        self
    }
}

/// Errors from the durability layer.
#[derive(Debug)]
pub enum StorageError {
    /// An underlying file operation failed (injected crashes surface
    /// here as [`std::io::ErrorKind::ConnectionAborted`]).
    Io(std::io::Error),
    /// A value refused to serialize (or a payload was absurdly large).
    Encode(String),
    /// On-disk state failed validation (checksum, framing, counts).
    Corrupt(String),
}

impl StorageError {
    /// Is this the [`fault::CrashFs`] shim firing (as opposed to a real
    /// I/O failure)?
    pub fn is_injected_crash(&self) -> bool {
        matches!(self, StorageError::Io(e)
            if e.kind() == std::io::ErrorKind::ConnectionAborted
                && e.to_string().contains("injected crash"))
    }
}

impl std::fmt::Display for StorageError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StorageError::Io(e) => write!(f, "storage I/O error: {e}"),
            StorageError::Encode(what) => write!(f, "storage encoding error: {what}"),
            StorageError::Corrupt(what) => write!(f, "corrupt durable state: {what}"),
        }
    }
}

impl std::error::Error for StorageError {}

/// What [`DurableCatalog::open`] produced alongside the handle.
#[derive(Debug)]
pub struct OpenedCatalog {
    pub durable: DurableCatalog,
    pub index: CatalogIndex,
    pub buffer: DeltaBuffer,
    /// `Some` when disk state was recovered; `None` on a cold start
    /// (fresh directory, or no valid checkpoint — the index was then
    /// seeded from the surviving file system and checkpoint 0 written).
    pub recovered: Option<RecoveryStats>,
}

/// The engine-facing durability handle: write-ahead logging plus
/// periodic checkpoints over one durability directory.
#[derive(Debug)]
pub struct DurableCatalog {
    dir: PathBuf,
    fsync: FsyncPolicy,
    checkpoint_every: u32,
    wal: Wal,
    triggers_since_checkpoint: u32,
    checkpoints_written: u64,
}

impl DurableCatalog {
    /// Open the durability directory: recover `(index, buffer)` from
    /// disk if a valid checkpoint exists, otherwise cold-start — seed
    /// the index from `fs` (the one unavoidable walk), truncate any
    /// stale WAL, and write checkpoint 0.
    pub fn open(
        config: &DurabilityConfig,
        fs: &VirtualFs,
        exemptions: &ExemptionList,
        buffer_cap: usize,
    ) -> Result<OpenedCatalog, StorageError> {
        std::fs::create_dir_all(&config.wal_dir).map_err(StorageError::Io)?;
        let recovered = recover(&config.wal_dir, buffer_cap, exemptions)?;
        let (index, buffer, next_seq, stats) = match recovered {
            Some(state) => (
                state.index,
                state.buffer,
                state.stats.next_seq,
                Some(state.stats),
            ),
            None => {
                // Nothing durable (or nothing valid): rebuild from the
                // surviving namespace and restart the log from scratch.
                let index = CatalogIndex::from_fs(fs, exemptions);
                let buffer = DeltaBuffer::with_capacity(buffer_cap);
                let wal_path = config.wal_dir.join(wal::WAL_FILE);
                if wal_path.exists() {
                    std::fs::remove_file(&wal_path).map_err(StorageError::Io)?;
                }
                write_checkpoint(&config.wal_dir, 0, &index, &buffer, config.fsync)?;
                (index, buffer, 1, None)
            }
        };
        let mut durable = DurableCatalog {
            dir: config.wal_dir.clone(),
            fsync: config.fsync,
            checkpoint_every: config.checkpoint_every_triggers.max(1),
            wal: Wal::open_for_append(&config.wal_dir, config.fsync, next_seq)?,
            triggers_since_checkpoint: 0,
            checkpoints_written: u64::from(stats.is_none()),
        };
        if let Some(InjectedCrash::AtWalByte(offset)) = config.injected_crash {
            durable.wal.arm_fault(offset);
        }
        Ok(OpenedCatalog {
            durable,
            index,
            buffer,
            recovered: stats,
        })
    }

    /// Write-ahead log one drained delta batch. Returns the frame
    /// bytes appended. Call *before* absorbing the batch into the
    /// buffer; on error the handle is stale and the owner must drop it
    /// and re-open (recovery truncates the torn tail).
    pub fn log_batch(&mut self, deltas: &[Delta]) -> Result<u64, StorageError> {
        let (_, bytes) = self.wal.append_frame(Some(deltas))?;
        Ok(bytes)
    }

    /// Write-ahead log a buffer→index flush boundary. Call *before*
    /// the in-memory flush.
    pub fn log_flush_mark(&mut self) -> Result<u64, StorageError> {
        let (_, bytes) = self.wal.append_frame(None)?;
        Ok(bytes)
    }

    /// Note a retention trigger; every `checkpoint_every_triggers`-th
    /// call cuts a checkpoint of the live pair. Returns the checkpoint
    /// bytes written, if one was cut.
    pub fn note_trigger(
        &mut self,
        index: &CatalogIndex,
        buffer: &DeltaBuffer,
    ) -> Result<Option<u64>, StorageError> {
        self.triggers_since_checkpoint += 1;
        if self.triggers_since_checkpoint < self.checkpoint_every {
            return Ok(None);
        }
        self.checkpoint_now(index, buffer).map(Some)
    }

    /// Cut a checkpoint of the live pair right now, covering every
    /// record logged so far.
    pub fn checkpoint_now(
        &mut self,
        index: &CatalogIndex,
        buffer: &DeltaBuffer,
    ) -> Result<u64, StorageError> {
        let bytes = write_checkpoint(&self.dir, self.wal.last_seq(), index, buffer, self.fsync)?;
        self.triggers_since_checkpoint = 0;
        self.checkpoints_written += 1;
        Ok(bytes)
    }

    /// Checkpoints written through this handle (cold-start checkpoint 0
    /// included).
    pub fn checkpoints_written(&self) -> u64 {
        self.checkpoints_written
    }
}
