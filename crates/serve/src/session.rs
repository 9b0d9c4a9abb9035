//! Whole-session persistence: a [`SessionState`] is everything a serving
//! host must write to disk to evict a tenant and later continue it
//! **bit-for-bit** — the learner snapshot (model, optimizer momenta,
//! synthetic buffer, RNG) plus the tenant's position in its input stream.
//!
//! This is the one at-rest format for learner state: the binary
//! [`crate::wire`] layer preserves exact `f32`/`u64` bit patterns a JSON
//! codec cannot, and the stream cursor makes the *input* side of the
//! computation resumable, not just the model side.

use std::path::Path;

use deco::{LearnerSnapshot, OnDeviceLearner};
use deco_datasets::{RunState, StreamCursor};
use deco_tensor::StoredTensor;

use crate::wire::{read_file, write_file, Reader, WireError, Writer};

/// One tenant's complete persisted state.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionState {
    /// The owning tenant.
    pub tenant_id: u64,
    /// Learner-side state (model, optimizers, buffer, RNG, counters).
    pub snapshot: LearnerSnapshot,
    /// Position in the tenant's input stream.
    pub cursor: StreamCursor,
}

impl SessionState {
    /// Captures the state of `learner` at stream position `cursor`.
    ///
    /// # Panics
    /// Panics for a selection-policy learner (see
    /// [`OnDeviceLearner::snapshot`]).
    pub fn capture(tenant_id: u64, learner: &OnDeviceLearner, cursor: StreamCursor) -> Self {
        SessionState {
            tenant_id,
            snapshot: learner.snapshot(),
            cursor,
        }
    }

    /// Restores the learner side of this state into `learner` (the stream
    /// side is the caller's: seek a fresh stream to [`SessionState::cursor`]).
    ///
    /// # Panics
    /// Panics on architecture or buffer-geometry mismatches.
    pub fn restore_into(&self, learner: &mut OnDeviceLearner) {
        learner.restore(&self.snapshot);
    }

    /// Serializes to the version-2 binary session format: the synthetic
    /// buffer travels as a dtype-tagged stored-tensor record encoded at
    /// the snapshot's committed scalar type, so a bf16 buffer costs half
    /// — and an i8 buffer a quarter — of its f32 payload.
    /// Model parameters and optimizer momenta stay raw f32: they are
    /// live compute state, and evict/rehydrate must reproduce them
    /// bit-for-bit.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = Writer::with_header();
        w.put_u64(self.tenant_id);
        let s = &self.snapshot;
        w.put_tensor_vec(&s.model_params);
        w.put_opt_tensor_vec(&s.opt_model_velocity);
        w.put_opt_tensor_vec(&s.condenser_velocity);
        w.put_stored_tensor(&StoredTensor::encode_with(
            &s.buffer_images,
            s.buffer_scalar,
        ));
        w.put_usize(s.buffer_ipc);
        w.put_usize(s.buffer_classes);
        w.put_u64(s.rng_state);
        w.put_opt_f32(s.rng_spare);
        w.put_usize(s.segments_seen);
        w.put_usize(s.items_seen);
        Self::put_cursor(&mut w, &self.cursor);
        w.seal()
    }

    fn put_cursor(w: &mut Writer, c: &deco_datasets::StreamCursor) {
        w.put_u64(c.rng_state);
        w.put_opt_f32(c.rng_spare);
        match &c.run {
            Some(r) => {
                w.put_u8(1);
                w.put_usize(r.class);
                w.put_usize(r.instance);
                w.put_usize(r.environment);
                w.put_f32(r.view);
                w.put_f32(r.view_step);
                w.put_usize(r.remaining);
            }
            None => w.put_u8(0),
        }
        w.put_usize(c.emitted);
    }

    /// Deserializes a session written by [`SessionState::to_bytes`].
    ///
    /// # Errors
    /// Returns a typed [`WireError`] for any defect — wrong magic, any
    /// version but [`crate::FORMAT_VERSION`], corruption, truncation, or
    /// trailing bytes.
    pub fn from_bytes(bytes: &[u8]) -> Result<SessionState, WireError> {
        let mut r = Reader::open(bytes)?;
        let tenant_id = r.get_u64()?;
        let model_params = r.get_tensor_vec()?;
        let opt_model_velocity = r.get_opt_tensor_vec()?;
        let condenser_velocity = r.get_opt_tensor_vec()?;
        let stored = r.get_stored_tensor()?;
        let (buffer_images, buffer_scalar) = (stored.decode(), stored.scalar_type());
        let buffer_ipc = r.get_usize()?;
        let buffer_classes = r.get_usize()?;
        let rng_state = r.get_u64()?;
        let rng_spare = r.get_opt_f32()?;
        let segments_seen = r.get_usize()?;
        let items_seen = r.get_usize()?;
        let cursor_rng_state = r.get_u64()?;
        let cursor_rng_spare = r.get_opt_f32()?;
        let run = match r.get_u8()? {
            0 => None,
            1 => Some(RunState {
                class: r.get_usize()?,
                instance: r.get_usize()?,
                environment: r.get_usize()?,
                view: r.get_f32()?,
                view_step: r.get_f32()?,
                remaining: r.get_usize()?,
            }),
            tag => return Err(WireError::Corrupt(format!("bad run tag {tag}"))),
        };
        let emitted = r.get_usize()?;
        r.finish()?;
        if buffer_ipc == 0 || buffer_classes == 0 {
            return Err(WireError::Corrupt(format!(
                "impossible buffer geometry: ipc {buffer_ipc}, classes {buffer_classes}"
            )));
        }
        Ok(SessionState {
            tenant_id,
            snapshot: LearnerSnapshot {
                model_params,
                opt_model_velocity,
                condenser_velocity,
                buffer_images,
                buffer_scalar,
                buffer_ipc,
                buffer_classes,
                rng_state,
                rng_spare,
                segments_seen,
                items_seen,
            },
            cursor: StreamCursor {
                rng_state: cursor_rng_state,
                rng_spare: cursor_rng_spare,
                run,
                emitted,
            },
        })
    }

    /// Writes the session to `path` (temp file + rename).
    ///
    /// # Errors
    /// Returns any I/O error.
    pub fn save(&self, path: &Path) -> Result<(), WireError> {
        write_file(path, &self.to_bytes())
    }

    /// Reads a session from `path`.
    ///
    /// # Errors
    /// Returns I/O errors and every decode-time [`WireError`].
    pub fn load(path: &Path) -> Result<SessionState, WireError> {
        SessionState::from_bytes(&read_file(path)?)
    }

    /// Serialized size in bytes — the steady-state on-disk footprint of an
    /// evicted tenant, reported by the throughput bench.
    pub fn serialized_bytes(&self) -> usize {
        self.to_bytes().len()
    }
}
