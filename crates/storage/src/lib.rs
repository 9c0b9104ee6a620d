//! Storage substrates for the Gryphon durable-subscription reproduction.
//!
//! There is one durable format, [`LogVolume`] — the logger of Bagchi et
//! al. \[8\]: multiple append-only *log streams* multiplexed onto
//! segments of CRC-framed records, with per-record monotone indexes,
//! prefix *chopping* (each chop frame carries the caller's floor), and
//! efficient retrieval by index. Everything durable is built on it:
//!
//! * the Persistent Filtering Subsystem (in the broker crate) — one
//!   stream per pubend;
//! * [`EventLog`] — the pubend's persistent ordered event stream, indexed
//!   by timestamp (the *only* place an event is persistently logged);
//! * [`MetaTable`] — a durable key-value table standing in for the DB2
//!   tables that hold `latestDelivered(p)`, `released(s, p)` and JMS
//!   checkpoint tokens: one stream, one record per batch, so a whole
//!   batch of updates commits with one sync because the JMS
//!   auto-acknowledge experiment is bottlenecked on exactly that.
//!
//! The volume sits on a [`Media`] abstraction with a real-file backend
//! ([`FileFactory`], positioned I/O: one `pwrite`/`pread` per frame) for
//! wall-clock microbenchmarks and an in-memory durable backend
//! ([`MemFactory`]) whose contents survive simulated crashes, so recovery
//! paths are tested deterministically.
//!
//! Storage costs what its bytes cost. Every frame's CRC-32C runs on the
//! CPU's SSE4.2 `crc32` instruction where there is one and on
//! slicing-by-8 tables elsewhere (the same polynomial and the same bytes
//! either way), and a frame is encoded into a buffer the volume reuses,
//! copying its payload once.
//!
//! # Examples
//!
//! ```
//! use gryphon_storage::{LogVolume, MemFactory, StreamId, VolumeConfig};
//!
//! let factory = MemFactory::new();
//! let mut vol = LogVolume::create(Box::new(factory.clone()), "pfs", VolumeConfig::default())?;
//! let s = StreamId(0);
//! let i0 = vol.append(s, b"hello")?;
//! let i1 = vol.append(s, b"world")?;
//! vol.sync()?;
//! assert_eq!(vol.read(s, i0)?.as_deref(), Some(&b"hello"[..]));
//! vol.chop(s, i1, 0)?; // discard records with index < i1 (floor 0)
//! assert_eq!(vol.read(s, i0)?, None);
//! assert_eq!(vol.read(s, i1)?.as_deref(), Some(&b"world"[..]));
//! # Ok::<(), gryphon_storage::StorageError>(())
//! ```

mod codec;
mod commit;
mod crc;
mod event_log;
mod log_volume;
mod media;
mod meta_table;
#[cfg(test)]
mod prop_tests;
mod segment;

pub(crate) use crc::{crc32c, crc32c_update};

pub use codec::{decode_event, encode_event, CodecError};
pub use commit::{CommitPipeline, CommitPipelineStats, Commitable};
pub use event_log::EventLog;
pub use log_volume::{LogIndex, LogVolume, StreamId, VolumeConfig, VolumeStats};
pub use media::{FileFactory, Media, MediaFactory, MediaStats, MemFactory};
pub use meta_table::{MetaTable, SharedMetaTable, TableConfig, TableStats};

impl Commitable for LogVolume {
    fn sync_commit(&mut self) -> Result<(), StorageError> {
        self.sync()
    }
}

impl Commitable for EventLog {
    fn sync_commit(&mut self) -> Result<(), StorageError> {
        self.sync()
    }
}

impl Commitable for MetaTable {
    fn sync_commit(&mut self) -> Result<(), StorageError> {
        self.sync()
    }
}

/// Errors from the storage layer.
#[derive(Debug)]
pub enum StorageError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// A record failed its CRC or framing check during recovery or read.
    Corrupt {
        /// Which media the corruption was found in.
        media: String,
        /// Byte offset of the bad frame.
        offset: u64,
        /// Description of the failed check.
        detail: String,
    },
    /// Value decoding failed (event codec, metadata value).
    Codec(CodecError),
    /// An operation referenced an unknown named media.
    MissingMedia(String),
}

impl From<std::io::Error> for StorageError {
    fn from(e: std::io::Error) -> Self {
        StorageError::Io(e)
    }
}

impl From<CodecError> for StorageError {
    fn from(e: CodecError) -> Self {
        StorageError::Codec(e)
    }
}

impl std::fmt::Display for StorageError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StorageError::Io(e) => write!(f, "storage i/o error: {e}"),
            StorageError::Corrupt {
                media,
                offset,
                detail,
            } => write!(f, "corrupt record in '{media}' at {offset}: {detail}"),
            StorageError::Codec(e) => write!(f, "codec error: {e}"),
            StorageError::MissingMedia(name) => write!(f, "missing media '{name}'"),
        }
    }
}

impl std::error::Error for StorageError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StorageError::Io(e) => Some(e),
            StorageError::Codec(e) => Some(e),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_display() {
        let e = StorageError::Corrupt {
            media: "seg-0".into(),
            offset: 12,
            detail: "bad crc".into(),
        };
        assert!(e.to_string().contains("seg-0"));
        assert!(StorageError::MissingMedia("x".into())
            .to_string()
            .contains('x'));
    }
}
