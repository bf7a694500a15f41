//! The manager's side of persistence: checkpoint every resident variant
//! to bytes, and re-materialize a checkpoint into a live image behind the
//! same checks a fresh rewrite faces. The byte format itself is
//! [`crate::persist`]; a caller that wants a file owns the file.

use super::decide::{decide, Decision, Gate, Origin, Stage, View};
use super::{CacheKey, SpecializationManager, Variant};
use crate::error::RewriteError;
use crate::persist::{self, PersistError, PersistedVariant};
use crate::telemetry::flight::FlightKind;
use brew_image::{layout, Image, SegKind};
use std::sync::Arc;

/// What [`SpecializationManager::save_variant_bytes_report`] wrote, and
/// what it could *not*: per-entry problems never abort the save
/// (best-effort on save, strict on load) and are never silent — failures
/// count in `brew_persist_save_failed_total` (each with a `SAVE_FAIL`
/// record), unportable variants in `brew_persist_save_unportable_total`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SaveReport {
    /// Variants serialized into the checkpoint.
    pub written: usize,
    /// Variants skipped because their entry address is not in this
    /// image's JIT segment (a foreign image — legitimately not ours).
    pub skipped: usize,
    /// Variants whose code read-back failed even though their entry is
    /// in this image's JIT segment — a genuine per-entry I/O error.
    pub failed: usize,
    /// Variants the format cannot carry: their code reads constants from a
    /// literal pool in the image's data segment (`stats.pool_bytes > 0`),
    /// and a checkpoint holds code bytes only. Warm-started, such a variant
    /// would pass every load check and compute with zeros, so it is not
    /// written; its key cold-starts in the next process.
    pub unportable: usize,
    /// Total checkpoint size in bytes.
    pub bytes: usize,
}

/// What [`SpecializationManager::load_variant_bytes`] did with each
/// persisted entry: re-verified-and-published, or rejected with a typed
/// reason.
#[derive(Debug, Clone, PartialEq)]
pub struct LoadReport {
    /// Entries that survived every load check (including the publish
    /// gate) and are now resident.
    pub published: usize,
    /// Rejected entries as `(func, fingerprint, why)`; entries whose
    /// checksum failed decode as `(0, 0, why)` because nothing inside
    /// them can be trusted, not even the key.
    pub rejected: Vec<(u64, u64, PersistError)>,
}

impl SpecializationManager {
    /// Serialize every resident variant to the checkpoint format (see
    /// [`crate::persist`]): emitted code bytes read back from `img`, the
    /// producing request, the folded-memory snapshot and the rewrite
    /// stats. Entries are written sorted by ascending JIT entry address
    /// so a fresh process can re-reserve their regions in one monotone
    /// sweep of the bump allocator.
    pub fn save_variant_bytes(&self, img: &Image) -> Vec<u8> {
        self.save_variant_bytes_report(img).0
    }

    /// [`save_variant_bytes`](Self::save_variant_bytes) plus the save
    /// accounting: per-entry problems do not abort the save, but each one
    /// lands in the [`SaveReport`] instead of disappearing. A caller that
    /// wants a file writes the bytes itself.
    pub fn save_variant_bytes_report(&self, img: &Image) -> (Vec<u8>, SaveReport) {
        let mut entries = Vec::with_capacity(self.cache.len());
        self.cache
            .each(|e| entries.push((e.key, e.req.clone(), Arc::clone(&e.variant))));
        entries.sort_by_key(|(_, _, v)| v.entry);
        let mut vars = Vec::with_capacity(entries.len());
        let (mut skipped, mut failed, mut unportable) = (0usize, 0usize, 0usize);
        for (key, req, v) in entries {
            if !matches!(img.segment_of(v.entry), Some(SegKind::Jit)) {
                // Not this image's code (a foreign image): legitimately
                // not ours to save.
                skipped += 1;
                continue;
            }
            if v.stats.pool_bytes > 0 {
                // The literal pool lives in the data segment and would not
                // come along: refuse rather than reload a variant that
                // computes with zeros.
                unportable += 1;
                continue;
            }
            let mut code = vec![0u8; v.code_len];
            if img.read_bytes(v.entry, &mut code).is_err() {
                // In our JIT segment but unreadable: a genuine per-entry
                // I/O failure. The save goes on, but loudly.
                failed += 1;
                self.note(FlightKind::PersistSaveFailed, [key.func, v.entry, 0, 0]);
                continue;
            }
            vars.push(PersistedVariant {
                func: key.func,
                fingerprint: key.fingerprint,
                entry: v.entry,
                code,
                snapshot: v.snapshot.clone(),
                stats: v.stats,
                req,
            });
        }
        let bytes = persist::encode_variants(&vars);
        self.note(
            FlightKind::PersistSave,
            [vars.len() as u64, bytes.len() as u64, unportable as u64, 0],
        );
        let report = SaveReport {
            written: vars.len(),
            skipped,
            failed,
            unportable,
            bytes: bytes.len(),
        };
        (bytes, report)
    }

    /// Re-materialize persisted variants into `img` and this manager's
    /// cache. **Nothing in `bytes` is trusted**: beyond the codec's
    /// framing and checksum validation, every entry must (1) hash its
    /// decoded request back to the stored fingerprint, (2) re-reserve its
    /// exact JIT region from the image's bump allocator, (3) still match
    /// its [`KnownSnapshot`](crate::KnownSnapshot) against the live image, and (4) pass the
    /// configured publish gate over the re-written code — the same gate a
    /// fresh rewrite would face. A failed entry is rejected (counted in
    /// `brew_persist_rejected_total`), negatively cached so the key
    /// cold-starts through the ordinary backoff, and never published.
    ///
    /// File-level corruption (magic, version, framing) fails the whole
    /// call; per-entry failures are collected in the report. Note: with
    /// no publish gate configured only the structural checks (1)–(3) run;
    /// install one (e.g. `brew_verify::publish_gate()`) to get the full
    /// translation-validation story on load.
    pub fn load_variant_bytes(
        &self,
        img: &Image,
        bytes: &[u8],
    ) -> Result<LoadReport, PersistError> {
        let decoded = persist::decode_variants(bytes).inspect_err(|_| {
            // File-level corruption (magic, version, framing) rejects the
            // whole checkpoint — a load with one rejection and nothing
            // published, counted like any other.
            self.note(FlightKind::PersistLoad, [0, 1, 0, 0]);
        })?;
        let mut report = LoadReport {
            published: 0,
            rejected: Vec::new(),
        };
        let mut entries = Vec::with_capacity(decoded.len());
        for item in decoded {
            match item {
                Ok(pv) => entries.push(pv),
                Err(e) => report.rejected.push((0, 0, e)),
            }
        }
        // Ascending entry order makes placement a single monotone sweep.
        entries.sort_by_key(|pv| pv.entry);
        for pv in entries {
            let key = CacheKey {
                func: pv.func,
                fingerprint: pv.fingerprint,
            };
            // `decide` restores the entry, or refuses it over budget like a
            // fresh rewrite.
            let loaded = self.load_one(img, &pv);
            let view = View {
                stage: match &loaded {
                    Ok(v) => Stage::Gated {
                        gate: Gate::Pass,
                        code_len: v.code_len,
                        provable: false,
                    },
                    Err(_) => Stage::Failed,
                },
                ..View::new(Origin::Load, self.tiering.is_some(), self.budget_bytes)
            };
            let d = decide(&view);
            let rejected = match (d, loaded) {
                (_, Err(e)) => e,
                (Decision::OverBudget { code_len, budget }, _) => {
                    self.journal(d, key, None);
                    let summary = RewriteError::OverBudget { code_len, budget }.to_string();
                    PersistError::Gate { summary }
                }
                (_, Ok(variant)) => {
                    self.install(d, view, key, &variant, pv.req.clone(), || true);
                    report.published += 1;
                    continue;
                }
            };
            self.negative
                .record_failure(&key, &rejected.as_rewrite_error(), || true);
            report.rejected.push((pv.func, pv.fingerprint, rejected));
        }
        // The load's counters come off this one record: published and
        // rejected entries, file-level and per-entry alike.
        self.note(
            FlightKind::PersistLoad,
            [report.published as u64, report.rejected.len() as u64, 0, 0],
        );
        Ok(report)
    }

    /// Validate one decoded entry against the live process and publish
    /// gate; on success the code is resident in `img` at its recorded
    /// entry and the returned [`Variant`] is ready to insert.
    fn load_one(&self, img: &Image, pv: &PersistedVariant) -> Result<Arc<Variant>, PersistError> {
        let computed = pv.req.fingerprint();
        if computed != pv.fingerprint {
            return Err(PersistError::Fingerprint {
                stored: pv.fingerprint,
                computed,
            });
        }
        if !pv.snapshot.matches(img) {
            return Err(PersistError::StaleSnapshot);
        }
        // Re-reserve the exact region `entry..entry+code_len` from the
        // JIT bump allocator: the next allocation starts at the 16-aligned
        // cursor, so claiming `end - align16(cursor)` bytes lands exactly
        // on `end`. Entries arrive sorted ascending, so a cursor already
        // past `entry` means a genuine conflict (earlier allocations or
        // overlapping entries), not ordering.
        let end = pv.entry + pv.code.len() as u64;
        let cursor = layout::JIT_BASE + layout::JIT_SIZE - img.jit_remaining();
        let aligned = (cursor + 15) & !15;
        if aligned > pv.entry || end < aligned {
            return Err(PersistError::Placement { entry: pv.entry });
        }
        match img.try_alloc_jit(end - aligned) {
            Some(start) if start == aligned => {}
            _ => return Err(PersistError::Placement { entry: pv.entry }),
        }
        if img.write_bytes(pv.entry, &pv.code).is_err() {
            return Err(PersistError::Placement { entry: pv.entry });
        }
        // The gate sees exactly what a fresh rewrite would hand it.
        let res = crate::RewriteResult {
            entry: pv.entry,
            code_len: pv.code.len(),
            stats: pv.stats,
            // The captured CFG is not serialized: reloaded variants skip
            // the equivalence tier and rest on the byte-level tiers.
            equiv: None,
            snapshot: pv.snapshot.clone(),
        };
        self.gate_check(img, pv.func, &pv.req, &res)
            .map_err(|(_, err)| match err {
                RewriteError::VerifyRejected { first, .. } => PersistError::Gate { summary: first },
                other => PersistError::Gate {
                    summary: other.to_string(),
                },
            })?;
        Ok(Arc::new(Variant {
            func: pv.func,
            entry: pv.entry,
            code_len: pv.code.len(),
            stats: pv.stats,
            guards: pv.req.guard_conditions(),
            snapshot: pv.snapshot.clone(),
        }))
    }
}
