//! Persisted mapped-model artifacts (`XBARMDL1`).
//!
//! The paper's Fig. 2 pipeline is expensive: every tile of every layer is a
//! circuit solve. [`save_artifact`] persists the *result* — the non-ideal
//! `W'` network produced by [`crate::pipeline::map_to_crossbars`] together
//! with the mapping configuration and statistics — so inference serving
//! (`xbar-serve`) can amortise the mapping across millions of requests, the
//! way RxNN/GENIEx-style flows evaluate circuits once and reuse them.
//!
//! ## Layout
//!
//! ```text
//! magic   b"XBARMDL1"                     (8 bytes)
//! meta    u64 length + UTF-8 JSON object  (architecture spec, mapping
//!                                          summary, stats, accuracies)
//! tensors u64 count + per tensor          (u64 element count + LE f32 data;
//!                                          the model's full inference state
//!                                          incl. BatchNorm statistics, see
//!                                          xbar_nn::serialize)
//! --- optional fidelity-tier payloads, each flagged in the meta ---
//! tensors ideal (software) model state      when meta "tiers"."ideal"
//! tensors surrogate-folded W'' model state  when meta "tiers"."surrogate"
//! tensors surrogate net parameters          when meta has "surrogate"
//! ```
//!
//! Unlike a training checkpoint the artifact is self-contained: the JSON
//! meta embeds the layer-by-layer [`LayerSpec`] so a server can rebuild the
//! architecture without knowing the training scenario.
//!
//! The optional payloads extend the format backward-compatibly in both
//! directions: a legacy artifact simply ends after the `W'` tensor block
//! (the flags default to absent), and a legacy reader given a new artifact
//! stops after the `W'` block and never sees the extras.

use crate::pipeline::{MapConfig, MapReport};
use std::fmt;
use std::io::{self, Read, Write};
use std::path::Path;
use xbar_nn::arch::{build_from_spec, spec_from_json, spec_of, spec_to_json, LayerSpec};
use xbar_nn::serialize::{
    read_exact_or_truncated, read_tensor_block_into, write_tensor_block, TensorBlockError,
};
use xbar_nn::Sequential;
use xbar_obs::json::Json;

const MAGIC: &[u8; 8] = b"XBARMDL1";
/// Refuse absurd meta blobs (corrupt length prefix) before allocating.
const MAX_META_BYTES: u64 = 64 << 20;

/// Error from artifact save/load.
#[derive(Debug)]
pub enum ArtifactError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// Not an artifact, truncated, or unparsable metadata.
    Malformed(String),
    /// The stored tensors do not fit the architecture the artifact itself
    /// declares (a corrupt or internally inconsistent file), or the model
    /// does not match a caller-supplied expectation.
    Mismatch(String),
}

impl fmt::Display for ArtifactError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArtifactError::Io(e) => write!(f, "artifact i/o error: {e}"),
            ArtifactError::Malformed(what) => write!(f, "malformed artifact: {what}"),
            ArtifactError::Mismatch(detail) => {
                write!(f, "artifact does not fit its declared model: {detail}")
            }
        }
    }
}

impl std::error::Error for ArtifactError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ArtifactError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for ArtifactError {
    fn from(e: io::Error) -> Self {
        ArtifactError::Io(e)
    }
}

impl From<TensorBlockError> for ArtifactError {
    fn from(e: TensorBlockError) -> Self {
        match e {
            TensorBlockError::Io(e) => ArtifactError::Io(e),
            TensorBlockError::Truncated(what) => ArtifactError::Malformed(what),
            TensorBlockError::Mismatch(detail) => ArtifactError::Mismatch(detail),
        }
    }
}

/// Input feature count of an embedded surrogate net for a tile shape.
///
/// The feature layout is part of the artifact format, five aggregate
/// blocks: normalized row voltages (`rows`), per-row ideal currents
/// (`rows`), per-column conductance sums (`cols`), per-column
/// depth-weighted ideal currents (`cols`, weighting each device by how far
/// down the column wire its current enters), then the per-column ideal
/// currents (`cols`) as the final block. These are the aggregates wire IR
/// drop physically responds to; raw per-device conductances are deliberately
/// excluded so surrogate evaluation stays an order of magnitude cheaper
/// than the circuit solve it replaces. The `xbar-surrogate` crate encodes
/// inputs with this layout and this function is the single source of truth
/// for its width.
pub fn surrogate_input_dim(rows: usize, cols: usize) -> usize {
    2 * rows + 3 * cols
}

/// Provenance and held-out validation record of an embedded surrogate:
/// which tile shape it emulates, its normalization constants, and how far
/// its predicted column currents sat from the exact solver on held-out
/// pairs. Persisted in (and restored from) the artifact meta so `/v1/model`
/// can report the surrogate's error without re-validating.
#[derive(Debug, Clone, PartialEq)]
pub struct SurrogateMeta {
    /// Crossbar rows the surrogate was trained for.
    pub rows: usize,
    /// Crossbar columns the surrogate was trained for.
    pub cols: usize,
    /// Conductance floor used for input normalization (S).
    pub g_min: f64,
    /// Conductance ceiling used for input normalization (S).
    pub g_max: f64,
    /// Nominal read voltage used for input/target normalization (V).
    pub v_read: f64,
    /// Held-out max column-current error, as a fraction of the largest
    /// exact current in the validation split.
    pub val_max_err: f64,
    /// Held-out RMS column-current error, same normalization.
    pub val_rms_err: f64,
    /// Training pairs generated from the exact solver.
    pub train_pairs: usize,
    /// Seed of pair generation and net initialisation.
    pub seed: u64,
    /// The surrogate net's architecture (rebuilt via `build_from_spec`).
    pub arch: Vec<LayerSpec>,
}

impl SurrogateMeta {
    fn from_json(j: &Json) -> Result<Self, String> {
        let num = |name: &str| -> Result<f64, String> {
            j.get(name)
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("surrogate record missing number field {name:?}"))
        };
        Ok(SurrogateMeta {
            rows: num("rows")? as usize,
            cols: num("cols")? as usize,
            g_min: num("g_min")?,
            g_max: num("g_max")?,
            v_read: num("v_read")?,
            val_max_err: num("val_max_err")?,
            val_rms_err: num("val_rms_err")?,
            train_pairs: num("train_pairs")? as usize,
            seed: num("seed")? as u64,
            arch: spec_from_json(j.get("arch").ok_or("surrogate record missing \"arch\"")?)?,
        })
    }
}

/// Which optional tier payloads follow the `W'` tensor block.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct TierFlags {
    ideal: bool,
    surrogate_model: bool,
}

/// A full fidelity-tier artifact: the exact `W'` model plus the optional
/// ideal (software) weights, the surrogate-folded `W''` weights, and the
/// serialized surrogate net itself.
#[derive(Debug, Clone)]
pub struct ArtifactBundle {
    /// The exact-solver-mapped `W'` network (always present).
    pub model: Sequential,
    /// Mapping provenance, statistics, and the surrogate record.
    pub meta: ArtifactMeta,
    /// The pre-mapping software network (the `ideal` serving tier).
    pub ideal_model: Option<Sequential>,
    /// The surrogate-folded `W''` network (the `surrogate` serving tier).
    pub surrogate_model: Option<Sequential>,
    /// The surrogate net whose fold produced `surrogate_model`; its
    /// architecture and validation errors live in `meta.surrogate`.
    pub surrogate_net: Option<Sequential>,
}

impl ArtifactBundle {
    /// Wraps a plain mapped model with no optional tier payloads.
    pub fn exact_only(model: Sequential, meta: ArtifactMeta) -> Self {
        Self {
            model,
            meta,
            ideal_model: None,
            surrogate_model: None,
            surrogate_net: None,
        }
    }
}

/// Descriptive metadata persisted with (and restored from) an artifact.
#[derive(Debug, Clone, PartialEq)]
pub struct ArtifactMeta {
    /// Free-form model label (e.g. `"VGG11 CIFAR10-like C/F s=0.8"`).
    pub label: String,
    /// Number of output classes.
    pub num_classes: usize,
    /// Expected input shape per example, `[C, H, W]`.
    pub input_shape: Vec<usize>,
    /// Crossbar rows of the mapping run.
    pub rows: usize,
    /// Crossbar columns of the mapping run.
    pub cols: usize,
    /// Pruning/`T`-transformation method (display form, e.g. `"C/F"`).
    pub method: String,
    /// `R` column rearrangement, if any (debug form).
    pub rearrange: Option<String>,
    /// Weight→conductance scale (debug form).
    pub scale: String,
    /// Circuit solver (debug form).
    pub solve: String,
    /// Device-variation seed of the mapping run.
    pub seed: u64,
    /// Total crossbar tiles the model occupied.
    pub crossbar_count: usize,
    /// Mean non-ideality factor over all mapped tiles.
    pub mean_nf: f64,
    /// Total circuit-solver iterations spent producing `W'`.
    pub solver_iterations: u64,
    /// Tiles that needed the non-convergence fallback.
    pub non_converged: usize,
    /// Software (pre-mapping) test accuracy, if measured.
    pub software_accuracy: Option<f64>,
    /// Non-ideal (mapped) test accuracy, if measured.
    pub crossbar_accuracy: Option<f64>,
    /// Stuck devices found by the read-verify pass.
    pub stuck_cells: usize,
    /// Faulty columns remapped onto spare columns.
    pub repaired_columns: usize,
    /// Stuck cells digitally corrected in the periphery.
    pub corrected_cells: usize,
    /// Tiles still above the fault threshold after repair — non-zero means
    /// the server reports degraded health while continuing to serve.
    pub degraded_tiles: usize,
    /// Worst post-repair tile fault score.
    pub max_fault_score: f64,
    /// Embedded-surrogate record (tile shape, normalization, held-out
    /// validation error); `None` for artifacts without a surrogate.
    pub surrogate: Option<SurrogateMeta>,
    /// Test accuracy of the surrogate-folded `W''` model, if measured.
    pub surrogate_accuracy: Option<f64>,
}

impl ArtifactMeta {
    /// Builds metadata from a mapping run's configuration and report.
    pub fn from_mapping(label: impl Into<String>, cfg: &MapConfig, report: &MapReport) -> Self {
        Self {
            label: label.into(),
            num_classes: 0,
            input_shape: vec![3, 32, 32],
            rows: cfg.params.rows,
            cols: cfg.params.cols,
            method: cfg.method.to_string(),
            rearrange: cfg.rearrange.map(|r| format!("{r:?}")),
            scale: format!("{:?}", cfg.scale),
            solve: format!("{:?}", cfg.solve),
            seed: cfg.seed,
            crossbar_count: report.crossbar_count(),
            mean_nf: report.mean_nf(),
            solver_iterations: report.solver_iterations(),
            non_converged: report.non_converged(),
            software_accuracy: None,
            crossbar_accuracy: None,
            stuck_cells: report.stuck_cells(),
            repaired_columns: report.repaired_columns(),
            corrected_cells: report.corrected_cells(),
            degraded_tiles: report.degraded_tiles(),
            max_fault_score: report.max_fault_score(),
            surrogate: None,
            surrogate_accuracy: None,
        }
    }

    /// Whether the mapped model carries tiles that stayed faulty past the
    /// repair threshold.
    pub fn is_degraded(&self) -> bool {
        self.degraded_tiles > 0
    }

    /// Elements of one input example (`C·H·W`).
    pub fn input_len(&self) -> usize {
        self.input_shape.iter().product()
    }

    /// JSON object used by the server's classify responses (a compact echo
    /// of the mapping provenance).
    pub fn summary_json(&self) -> Json {
        let mut fields = vec![
            ("label".into(), Json::Str(self.label.clone())),
            ("rows".into(), Json::Num(self.rows as f64)),
            ("cols".into(), Json::Num(self.cols as f64)),
            ("method".into(), Json::Str(self.method.clone())),
            ("mean_nf".into(), Json::Num(self.mean_nf)),
            (
                "crossbar_count".into(),
                Json::Num(self.crossbar_count as f64),
            ),
            (
                "crossbar_accuracy".into(),
                self.crossbar_accuracy.map_or(Json::Null, Json::Num),
            ),
            ("stuck_cells".into(), Json::Num(self.stuck_cells as f64)),
            (
                "repaired_columns".into(),
                Json::Num(self.repaired_columns as f64),
            ),
            (
                "degraded_tiles".into(),
                Json::Num(self.degraded_tiles as f64),
            ),
        ];
        if let Some(s) = &self.surrogate {
            fields.push((
                "surrogate".into(),
                Json::Obj(vec![
                    ("val_max_err".into(), Json::Num(s.val_max_err)),
                    ("val_rms_err".into(), Json::Num(s.val_rms_err)),
                    ("train_pairs".into(), Json::Num(s.train_pairs as f64)),
                ]),
            ));
            if let Some(acc) = self.surrogate_accuracy {
                fields.push(("surrogate_accuracy".into(), Json::Num(acc)));
            }
        }
        Json::Obj(fields)
    }

    fn to_json(&self, spec: &[LayerSpec], tiers: TierFlags) -> Json {
        let opt_num = |v: Option<f64>| v.map_or(Json::Null, Json::Num);
        let mut fields = vec![
            ("format".into(), Json::Str("XBARMDL1".into())),
            ("label".into(), Json::Str(self.label.clone())),
            ("num_classes".into(), Json::Num(self.num_classes as f64)),
            (
                "input_shape".into(),
                Json::Arr(
                    self.input_shape
                        .iter()
                        .map(|&d| Json::Num(d as f64))
                        .collect(),
                ),
            ),
            ("arch".into(), spec_to_json(spec)),
            ("rows".into(), Json::Num(self.rows as f64)),
            ("cols".into(), Json::Num(self.cols as f64)),
            ("method".into(), Json::Str(self.method.clone())),
            (
                "rearrange".into(),
                self.rearrange
                    .as_ref()
                    .map_or(Json::Null, |r| Json::Str(r.clone())),
            ),
            ("scale".into(), Json::Str(self.scale.clone())),
            ("solve".into(), Json::Str(self.solve.clone())),
            ("seed".into(), Json::Num(self.seed as f64)),
            (
                "crossbar_count".into(),
                Json::Num(self.crossbar_count as f64),
            ),
            ("mean_nf".into(), Json::Num(self.mean_nf)),
            (
                "solver_iterations".into(),
                Json::Num(self.solver_iterations as f64),
            ),
            ("non_converged".into(), Json::Num(self.non_converged as f64)),
            ("software_accuracy".into(), opt_num(self.software_accuracy)),
            ("crossbar_accuracy".into(), opt_num(self.crossbar_accuracy)),
            ("stuck_cells".into(), Json::Num(self.stuck_cells as f64)),
            (
                "repaired_columns".into(),
                Json::Num(self.repaired_columns as f64),
            ),
            (
                "corrected_cells".into(),
                Json::Num(self.corrected_cells as f64),
            ),
            (
                "degraded_tiles".into(),
                Json::Num(self.degraded_tiles as f64),
            ),
            ("max_fault_score".into(), Json::Num(self.max_fault_score)),
        ];
        // Tier payloads and the surrogate record are written only when
        // present, so surrogate-free artifacts stay byte-compatible with
        // what earlier writers produced.
        if tiers != TierFlags::default() {
            fields.push((
                "tiers".into(),
                Json::Obj(vec![
                    ("ideal".into(), Json::Bool(tiers.ideal)),
                    ("surrogate".into(), Json::Bool(tiers.surrogate_model)),
                ]),
            ));
        }
        if let Some(s) = &self.surrogate {
            fields.push((
                "surrogate".into(),
                Json::Obj(vec![
                    ("rows".into(), Json::Num(s.rows as f64)),
                    ("cols".into(), Json::Num(s.cols as f64)),
                    ("g_min".into(), Json::Num(s.g_min)),
                    ("g_max".into(), Json::Num(s.g_max)),
                    ("v_read".into(), Json::Num(s.v_read)),
                    ("val_max_err".into(), Json::Num(s.val_max_err)),
                    ("val_rms_err".into(), Json::Num(s.val_rms_err)),
                    ("train_pairs".into(), Json::Num(s.train_pairs as f64)),
                    ("seed".into(), Json::Num(s.seed as f64)),
                    ("arch".into(), spec_to_json(&s.arch)),
                ]),
            ));
        }
        if let Some(acc) = self.surrogate_accuracy {
            fields.push(("surrogate_accuracy".into(), Json::Num(acc)));
        }
        Json::Obj(fields)
    }

    fn from_json(j: &Json) -> Result<(Self, Vec<LayerSpec>, TierFlags), String> {
        let str_field = |name: &str| -> Result<String, String> {
            j.get(name)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("meta missing string field {name:?}"))
        };
        let u64_field = |name: &str| -> Result<u64, String> {
            j.get(name)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("meta missing integer field {name:?}"))
        };
        let f64_field = |name: &str| -> Result<f64, String> {
            j.get(name)
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("meta missing number field {name:?}"))
        };
        let opt_f64 = |name: &str| j.get(name).and_then(Json::as_f64);
        let opt_usize = |name: &str| j.get(name).and_then(Json::as_u64).unwrap_or(0) as usize;
        let spec = spec_from_json(j.get("arch").ok_or("meta missing \"arch\"")?)?;
        let input_shape = j
            .get("input_shape")
            .and_then(Json::as_arr)
            .ok_or("meta missing \"input_shape\"")?
            .iter()
            .map(|d| d.as_u64().map(|v| v as usize))
            .collect::<Option<Vec<usize>>>()
            .ok_or("\"input_shape\" must be non-negative integers")?;
        let meta = ArtifactMeta {
            label: str_field("label")?,
            num_classes: u64_field("num_classes")? as usize,
            input_shape,
            rows: u64_field("rows")? as usize,
            cols: u64_field("cols")? as usize,
            method: str_field("method")?,
            rearrange: j
                .get("rearrange")
                .and_then(Json::as_str)
                .map(str::to_string),
            scale: str_field("scale")?,
            solve: str_field("solve")?,
            seed: u64_field("seed")?,
            crossbar_count: u64_field("crossbar_count")? as usize,
            mean_nf: f64_field("mean_nf")?,
            solver_iterations: u64_field("solver_iterations")?,
            non_converged: u64_field("non_converged")? as usize,
            software_accuracy: opt_f64("software_accuracy"),
            crossbar_accuracy: opt_f64("crossbar_accuracy"),
            // Fault-tolerance fields are absent in artifacts written before
            // repair existed; default them to "no faults seen".
            stuck_cells: opt_usize("stuck_cells"),
            repaired_columns: opt_usize("repaired_columns"),
            corrected_cells: opt_usize("corrected_cells"),
            degraded_tiles: opt_usize("degraded_tiles"),
            max_fault_score: opt_f64("max_fault_score").unwrap_or(0.0),
            // The surrogate record and tier flags are absent in artifacts
            // written before fidelity tiers existed; default to "exact W'
            // only".
            surrogate: match j.get("surrogate") {
                None | Some(Json::Null) => None,
                Some(s) => Some(SurrogateMeta::from_json(s)?),
            },
            surrogate_accuracy: opt_f64("surrogate_accuracy"),
        };
        let tiers = match j.get("tiers") {
            None | Some(Json::Null) => TierFlags::default(),
            Some(t) => TierFlags {
                ideal: t.get("ideal").and_then(Json::as_bool).unwrap_or(false),
                surrogate_model: t.get("surrogate").and_then(Json::as_bool).unwrap_or(false),
            },
        };
        Ok((meta, spec, tiers))
    }
}

/// Writes the mapped model (`W'` network) and its metadata to `writer`.
///
/// The architecture spec is derived from the model itself; `meta.num_classes`
/// is derived from the final linear layer if left at zero.
///
/// # Errors
///
/// Returns [`ArtifactError::Io`] on write failure.
pub fn save_artifact<W: Write>(
    model: &mut Sequential,
    meta: &ArtifactMeta,
    mut writer: W,
) -> Result<(), ArtifactError> {
    write_header(model, meta, TierFlags::default(), &mut writer)?;
    let tensors = model.state_tensors_mut();
    write_tensor_block(writer, tensors.iter().map(|t| &**t))?;
    Ok(())
}

/// Writes magic + meta (with `num_classes` derived from the final linear
/// layer if left at zero), validating any surrogate record against the
/// model's partition first.
fn write_header<W: Write>(
    model: &Sequential,
    meta: &ArtifactMeta,
    tiers: TierFlags,
    writer: &mut W,
) -> Result<(), ArtifactError> {
    let spec = spec_of(model);
    let mut meta = meta.clone();
    if meta.num_classes == 0 {
        meta.num_classes = model
            .layers()
            .iter()
            .rev()
            .find_map(|l| l.as_linear())
            .map(|l| l.out_features())
            .unwrap_or(0);
    }
    if let Some(s) = &meta.surrogate {
        validate_surrogate_record(s, &meta)?;
    }
    let meta_bytes = meta.to_json(&spec, tiers).to_json().into_bytes();
    writer.write_all(MAGIC)?;
    writer.write_all(&(meta_bytes.len() as u64).to_le_bytes())?;
    writer.write_all(&meta_bytes)?;
    Ok(())
}

/// Rejects a surrogate record whose tile shape or net geometry disagrees
/// with the mapped model's partition — a surrogate trained for a different
/// crossbar would silently serve wrong currents.
fn validate_surrogate_record(s: &SurrogateMeta, meta: &ArtifactMeta) -> Result<(), ArtifactError> {
    if (s.rows, s.cols) != (meta.rows, meta.cols) {
        return Err(ArtifactError::Mismatch(format!(
            "embedded surrogate was trained for {}×{} tiles but the model was \
             partitioned onto {}×{} crossbars; retrain the surrogate for this \
             tile shape",
            s.rows, s.cols, meta.rows, meta.cols
        )));
    }
    let in_dim = surrogate_input_dim(s.rows, s.cols);
    let first_in = s.arch.iter().find_map(|l| match l {
        LayerSpec::Linear { in_f, .. } => Some(*in_f),
        _ => None,
    });
    let last_out = s.arch.iter().rev().find_map(|l| match l {
        LayerSpec::Linear { out_f, .. } => Some(*out_f),
        _ => None,
    });
    if first_in != Some(in_dim) || last_out != Some(s.cols) {
        return Err(ArtifactError::Mismatch(format!(
            "embedded surrogate net maps {:?} → {:?} features but {}×{} tiles \
             need {} → {}; the surrogate block does not fit the declared tile \
             shape",
            first_in, last_out, s.rows, s.cols, in_dim, s.cols
        )));
    }
    Ok(())
}

/// Writes a full fidelity-tier bundle: the `W'` model plus any optional
/// ideal/surrogate payloads, each flagged in the meta so a reader knows
/// which tensor blocks follow.
///
/// # Errors
///
/// * [`ArtifactError::Io`] on write failure;
/// * [`ArtifactError::Mismatch`] when the surrogate net is present without
///   its meta record (or vice versa), or when the record disagrees with the
///   mapped model's partition.
pub fn save_artifact_bundle<W: Write>(
    bundle: &mut ArtifactBundle,
    mut writer: W,
) -> Result<(), ArtifactError> {
    if bundle.surrogate_net.is_some() != bundle.meta.surrogate.is_some() {
        return Err(ArtifactError::Mismatch(
            "bundle carries a surrogate net without its meta record (or a \
             record without the net); both or neither must be present"
                .into(),
        ));
    }
    let tiers = TierFlags {
        ideal: bundle.ideal_model.is_some(),
        surrogate_model: bundle.surrogate_model.is_some(),
    };
    write_header(&bundle.model, &bundle.meta, tiers, &mut writer)?;
    let tensors = bundle.model.state_tensors_mut();
    write_tensor_block(&mut writer, tensors.iter().map(|t| &**t))?;
    for m in [&mut bundle.ideal_model, &mut bundle.surrogate_model]
        .into_iter()
        .flatten()
    {
        let tensors = m.state_tensors_mut();
        write_tensor_block(&mut writer, tensors.iter().map(|t| &**t))?;
    }
    if let Some(net) = &mut bundle.surrogate_net {
        let tensors = net.state_tensors_mut();
        write_tensor_block(&mut writer, tensors.iter().map(|t| &**t))?;
    }
    Ok(())
}

/// Reads an artifact, rebuilding the model from the embedded architecture
/// spec and restoring its full inference state.
///
/// # Errors
///
/// * [`ArtifactError::Io`] on read failure;
/// * [`ArtifactError::Malformed`] for bad magic, truncation, or unparsable
///   metadata;
/// * [`ArtifactError::Mismatch`] when the tensor block does not fit the
///   declared architecture (names the offending tensor and sizes).
pub fn load_artifact<R: Read>(mut reader: R) -> Result<(Sequential, ArtifactMeta), ArtifactError> {
    let (model, meta, _tiers) = read_header_and_model(&mut reader)?;
    Ok((model, meta))
}

/// Shared front half of the two loaders: magic, meta, and the `W'` tensor
/// block. Returns the tier flags so [`load_artifact_bundle`] knows which
/// optional blocks follow; [`load_artifact`] ignores them, which is exactly
/// how legacy readers stay compatible with bundle files.
fn read_header_and_model<R: Read>(
    reader: &mut R,
) -> Result<(Sequential, ArtifactMeta, TierFlags), ArtifactError> {
    let mut magic = [0u8; 8];
    read_exact_or_truncated(&mut *reader, &mut magic, || "reading magic".into())?;
    if &magic != MAGIC {
        return Err(ArtifactError::Malformed(format!(
            "bad magic {:?} (not an XBARMDL1 artifact)",
            String::from_utf8_lossy(&magic)
        )));
    }
    let mut len8 = [0u8; 8];
    read_exact_or_truncated(&mut *reader, &mut len8, || "reading metadata length".into())?;
    let meta_len = u64::from_le_bytes(len8);
    if meta_len > MAX_META_BYTES {
        return Err(ArtifactError::Malformed(format!(
            "metadata length {meta_len} exceeds the {MAX_META_BYTES}-byte limit"
        )));
    }
    let mut meta_bytes = vec![0u8; meta_len as usize];
    read_exact_or_truncated(&mut *reader, &mut meta_bytes, || "reading metadata".into())?;
    let meta_text = String::from_utf8(meta_bytes)
        .map_err(|_| ArtifactError::Malformed("metadata is not UTF-8".into()))?;
    let json = Json::parse(&meta_text)
        .map_err(|e| ArtifactError::Malformed(format!("metadata JSON: {e}")))?;
    let (meta, spec, tiers) = ArtifactMeta::from_json(&json).map_err(ArtifactError::Malformed)?;
    if let Some(s) = &meta.surrogate {
        validate_surrogate_record(s, &meta)?;
    }
    let mut model = build_from_spec(&spec);
    read_block_into_model(&mut *reader, &mut model, "serving model")?;
    Ok((model, meta, tiers))
}

fn read_block_into_model<R: Read>(
    reader: R,
    model: &mut Sequential,
    which: &str,
) -> Result<(), ArtifactError> {
    let mut slots = model.state_tensors_mut();
    read_tensor_block_into(reader, &mut slots).map_err(|e| match e {
        TensorBlockError::Mismatch(detail) => ArtifactError::Mismatch(format!(
            "{detail} — the {which} tensor block disagrees with the \
             architecture the artifact declares; the file is corrupt or was \
             produced by an incompatible writer"
        )),
        other => other.into(),
    })
}

/// Reads a full fidelity-tier bundle. Optional payloads are read only when
/// the meta's tier flags / surrogate record say they are present, so legacy
/// artifacts (no flags) load with every optional slot `None`.
///
/// # Errors
///
/// Same as [`load_artifact`], plus [`ArtifactError::Mismatch`] when the
/// embedded surrogate record disagrees with the mapped model's partition
/// or an optional tensor block does not fit its declared architecture.
pub fn load_artifact_bundle<R: Read>(mut reader: R) -> Result<ArtifactBundle, ArtifactError> {
    let (model, meta, tiers) = read_header_and_model(&mut reader)?;
    let spec = spec_of(&model);
    let mut ideal_model = None;
    if tiers.ideal {
        let mut m = build_from_spec(&spec);
        read_block_into_model(&mut reader, &mut m, "ideal-tier model")?;
        ideal_model = Some(m);
    }
    let mut surrogate_model = None;
    if tiers.surrogate_model {
        let mut m = build_from_spec(&spec);
        read_block_into_model(&mut reader, &mut m, "surrogate-tier model")?;
        surrogate_model = Some(m);
    }
    let mut surrogate_net = None;
    if let Some(s) = &meta.surrogate {
        let mut net = build_from_spec(&s.arch);
        read_block_into_model(&mut reader, &mut net, "surrogate net")?;
        surrogate_net = Some(net);
    }
    Ok(ArtifactBundle {
        model,
        meta,
        ideal_model,
        surrogate_model,
        surrogate_net,
    })
}

/// Saves an artifact to a file (see [`save_artifact`]).
///
/// # Errors
///
/// Propagates [`save_artifact`] errors.
pub fn save_artifact_to_file(
    model: &mut Sequential,
    meta: &ArtifactMeta,
    path: impl AsRef<Path>,
) -> Result<(), ArtifactError> {
    // Crash-safe: temp file + atomic rename, so an interrupted save never
    // leaves a truncated artifact for a server to trip over.
    xbar_nn::serialize::write_file_atomic(path, |writer| save_artifact(model, meta, writer))
}

/// Loads an artifact from a file (see [`load_artifact`]).
///
/// # Errors
///
/// Propagates [`load_artifact`] errors.
pub fn load_artifact_from_file(
    path: impl AsRef<Path>,
) -> Result<(Sequential, ArtifactMeta), ArtifactError> {
    let file = std::fs::File::open(path)?;
    load_artifact(io::BufReader::new(file))
}

/// Saves a fidelity-tier bundle to a file (see [`save_artifact_bundle`]).
///
/// # Errors
///
/// Propagates [`save_artifact_bundle`] errors.
pub fn save_artifact_bundle_to_file(
    bundle: &mut ArtifactBundle,
    path: impl AsRef<Path>,
) -> Result<(), ArtifactError> {
    xbar_nn::serialize::write_file_atomic(path, |writer| save_artifact_bundle(bundle, writer))
}

/// Loads a fidelity-tier bundle from a file (see [`load_artifact_bundle`]).
///
/// # Errors
///
/// Propagates [`load_artifact_bundle`] errors.
pub fn load_artifact_bundle_from_file(
    path: impl AsRef<Path>,
) -> Result<ArtifactBundle, ArtifactError> {
    let file = std::fs::File::open(path)?;
    load_artifact_bundle(io::BufReader::new(file))
}

/// Loads a fidelity-tier bundle by memory-mapping the file and parsing the
/// tensor blocks straight out of the page cache — no read-side copies of
/// the (potentially large) weight payload. Behaviour is byte-for-byte
/// identical to [`load_artifact_bundle_from_file`]; only the I/O path
/// differs.
///
/// # Errors
///
/// Propagates mapping failures as [`ArtifactError::Io`], plus the usual
/// [`load_artifact_bundle`] errors.
pub fn load_artifact_bundle_mmap(path: impl AsRef<Path>) -> Result<ArtifactBundle, ArtifactError> {
    let map = crate::mmap::MappedFile::open(path)?;
    load_artifact_bundle(map.as_slice())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::map_to_crossbars;
    use xbar_nn::layers::{Conv2d, Dropout, Flatten, Linear, MaxPool2d, ReLU};
    use xbar_nn::train::{evaluate, DataRef};
    use xbar_nn::{Layer, Mode};
    use xbar_sim::params::CrossbarParams;
    use xbar_tensor::Tensor;

    fn tiny_model() -> Sequential {
        Sequential::new(vec![
            Layer::Conv2d(Conv2d::new(1, 8, 3, 1, 1, 1)),
            Layer::ReLU(ReLU::new()),
            Layer::MaxPool2d(MaxPool2d::new(2, 2)),
            Layer::Flatten(Flatten::new()),
            Layer::Linear(Linear::new(8 * 4 * 4, 4, 2)),
        ])
    }

    fn mapped() -> (Sequential, ArtifactMeta) {
        let model = tiny_model();
        let mut params = CrossbarParams::with_size(16);
        params.sigma_variation = 0.0;
        let cfg = MapConfig {
            params,
            ..Default::default()
        };
        let (noisy, report) = map_to_crossbars(&model, &cfg).unwrap();
        let mut meta = ArtifactMeta::from_mapping("tiny test model", &cfg, &report);
        meta.input_shape = vec![1, 8, 8];
        (noisy, meta)
    }

    fn save_to_vec(model: &mut Sequential, meta: &ArtifactMeta) -> Vec<u8> {
        let mut buf = Vec::new();
        save_artifact(model, meta, &mut buf).unwrap();
        buf
    }

    #[test]
    fn round_trip_is_bit_identical_and_metadata_survives() {
        let (mut noisy, meta) = mapped();
        let buf = save_to_vec(&mut noisy, &meta);
        let (mut loaded, loaded_meta) = load_artifact(buf.as_slice()).unwrap();
        let a: Vec<Tensor> = noisy
            .state_tensors_mut()
            .into_iter()
            .map(|t| t.clone())
            .collect();
        let b: Vec<Tensor> = loaded
            .state_tensors_mut()
            .into_iter()
            .map(|t| t.clone())
            .collect();
        assert_eq!(a, b, "W' tensors must round-trip bit-identically");
        assert_eq!(loaded_meta.label, "tiny test model");
        assert_eq!(loaded_meta.rows, 16);
        assert_eq!(loaded_meta.num_classes, 4, "derived from the final linear");
        assert_eq!(loaded_meta.input_len(), 64);
        assert!(loaded_meta.crossbar_count > 0);
    }

    #[test]
    fn round_trip_preserves_eval_outputs_exactly() {
        let (mut noisy, meta) = mapped();
        let x = Tensor::from_fn(&[6, 1, 8, 8], |i| ((i * 37) % 11) as f32 / 11.0 - 0.5);
        let before = noisy.forward(&x, Mode::Eval).unwrap();
        let buf = save_to_vec(&mut noisy, &meta);
        let (mut loaded, _) = load_artifact(buf.as_slice()).unwrap();
        let after = loaded.forward(&x, Mode::Eval).unwrap();
        assert_eq!(before, after, "identical logits ⇒ identical accuracy");
        // And identical accuracy on a labelled set, the acceptance check.
        let labels: Vec<usize> = (0..6).map(|i| i % 4).collect();
        let data = DataRef::new(&x, &labels).unwrap();
        let acc_before = evaluate(&mut noisy, data, 3).unwrap();
        let data = DataRef::new(&x, &labels).unwrap();
        let acc_after = evaluate(&mut loaded, data, 3).unwrap();
        assert_eq!(acc_before, acc_after);
    }

    #[test]
    fn bad_magic_rejected() {
        let err = load_artifact(&b"NOTMODEL........."[..]).unwrap_err();
        assert!(matches!(err, ArtifactError::Malformed(_)), "{err}");
        assert!(err.to_string().contains("magic"), "{err}");
    }

    #[test]
    fn truncated_artifact_rejected_with_description() {
        let (mut noisy, meta) = mapped();
        let mut buf = save_to_vec(&mut noisy, &meta);
        buf.truncate(buf.len() - 9);
        let err = load_artifact(buf.as_slice()).unwrap_err();
        let msg = err.to_string();
        assert!(matches!(err, ArtifactError::Malformed(_)), "{msg}");
        assert!(msg.contains("tensor"), "{msg}");
    }

    #[test]
    fn shape_mismatched_tensor_block_rejected_clearly() {
        let (mut noisy, meta) = mapped();
        let buf = save_to_vec(&mut noisy, &meta);
        // Corrupt the declared architecture: claim the final linear is
        // wider than the stored tensors.
        let text = String::from_utf8_lossy(&buf).into_owned();
        let patched = text.replacen("\"out\":4", "\"out\":5", 1);
        assert_ne!(text, patched, "meta should contain the linear spec");
        // Rebuild the byte stream with the patched meta (length changed).
        let meta_start = 16;
        let old_meta_len = u64::from_le_bytes(buf[8..16].try_into().unwrap()) as usize;
        let new_meta = &patched.as_bytes()[meta_start..meta_start + old_meta_len];
        let mut out = Vec::new();
        out.extend_from_slice(&buf[..8]);
        out.extend_from_slice(&(new_meta.len() as u64).to_le_bytes());
        out.extend_from_slice(new_meta);
        out.extend_from_slice(&buf[meta_start + old_meta_len..]);
        let err = load_artifact(out.as_slice()).unwrap_err();
        let msg = err.to_string();
        assert!(matches!(err, ArtifactError::Mismatch(_)), "{msg}");
        assert!(msg.contains("saved values"), "{msg}");
    }

    /// Saves a model with every layer kind whose spec is bounded (conv and
    /// max-pool kernel and stride, dropout `p`), swaps the meta text `from`
    /// for the same-length `to` (so the length prefix stays valid), and
    /// loads the result as a bundle.
    fn load_with_meta_patch(from: &str, to: &str) -> Result<ArtifactBundle, ArtifactError> {
        assert_eq!(from.len(), to.len());
        let (_, meta) = mapped();
        let mut model = Sequential::new(vec![
            Layer::Conv2d(Conv2d::new(1, 2, 3, 1, 1, 1)),
            Layer::MaxPool2d(MaxPool2d::new(2, 2)),
            Layer::Flatten(Flatten::new()),
            Layer::Dropout(Dropout::new(0.25, 3)),
            Layer::Linear(Linear::new(2 * 4 * 4, 4, 2)),
        ]);
        let mut buf = save_to_vec(&mut model, &meta);
        load_artifact_bundle(buf.as_slice()).expect("the unpatched artifact loads");
        let meta_len = u64::from_le_bytes(buf[8..16].try_into().unwrap()) as usize;
        let text = &mut buf[16..16 + meta_len];
        let at = text
            .windows(from.len())
            .position(|w| w == from.as_bytes())
            .unwrap_or_else(|| panic!("meta lacks {from}"));
        text[at..at + to.len()].copy_from_slice(to.as_bytes());
        load_artifact_bundle(buf.as_slice())
    }

    /// The patched artifact must fail as malformed, naming `field`.
    fn assert_malformed(from: &str, to: &str, field: &str) {
        match load_with_meta_patch(from, to) {
            Err(ArtifactError::Malformed(msg)) => assert!(msg.contains(field), "{to}: {msg}"),
            other => panic!("{to}: expected a malformed artifact, got {other:?}"),
        }
    }

    #[test]
    fn zero_conv_kernel_is_malformed() {
        assert_malformed(
            r#""kernel":3,"stride":1"#,
            r#""kernel":0,"stride":1"#,
            "kernel",
        );
    }

    #[test]
    fn zero_conv_stride_is_malformed() {
        assert_malformed(
            r#""kernel":3,"stride":1"#,
            r#""kernel":3,"stride":0"#,
            "stride",
        );
    }

    #[test]
    fn zero_maxpool_kernel_is_malformed() {
        assert_malformed(
            r#""maxpool2d","kernel":2"#,
            r#""maxpool2d","kernel":0"#,
            "kernel",
        );
    }

    #[test]
    fn zero_maxpool_stride_is_malformed() {
        assert_malformed(
            r#""maxpool2d","kernel":2,"stride":2"#,
            r#""maxpool2d","kernel":2,"stride":0"#,
            "stride",
        );
    }

    #[test]
    fn dropout_probability_outside_unit_interval_is_malformed() {
        for p in ["1.25", "-0.5", "1e99"] {
            assert_malformed(r#""p":0.25"#, &format!(r#""p":{p}"#), "[0, 1)");
        }
    }

    #[test]
    fn pre_fault_tolerance_artifacts_still_load() {
        // Artifacts written before the fault-tolerance fields existed carry
        // no stuck_cells/…/max_fault_score keys; they must load with the
        // fields defaulted, not be rejected.
        let (mut noisy, meta) = mapped();
        let mut buf = save_to_vec(&mut noisy, &meta);
        let old_meta_len = u64::from_le_bytes(buf[8..16].try_into().unwrap()) as usize;
        let text = String::from_utf8(buf[16..16 + old_meta_len].to_vec()).unwrap();
        let stripped = text
            .replacen(",\"stuck_cells\":0", "", 1)
            .replacen(",\"repaired_columns\":0", "", 1)
            .replacen(",\"corrected_cells\":0", "", 1)
            .replacen(",\"degraded_tiles\":0", "", 1)
            .replacen(",\"max_fault_score\":0", "", 1);
        assert_ne!(stripped, text, "fields should have been present to strip");
        let mut out = Vec::new();
        out.extend_from_slice(&buf[..8]);
        out.extend_from_slice(&(stripped.len() as u64).to_le_bytes());
        out.extend_from_slice(stripped.as_bytes());
        out.extend_from_slice(&buf[16 + old_meta_len..]);
        buf = out;
        let (_, loaded) = load_artifact(buf.as_slice()).unwrap();
        assert_eq!(loaded.stuck_cells, 0);
        assert_eq!(loaded.degraded_tiles, 0);
        assert!(!loaded.is_degraded());
        assert_eq!(loaded.max_fault_score, 0.0);
    }

    /// Surrogate record + freshly initialised net matching `mapped()`'s
    /// 16×16 crossbars.
    fn surrogate_parts(meta: &ArtifactMeta) -> (SurrogateMeta, Sequential) {
        let in_dim = surrogate_input_dim(meta.rows, meta.cols);
        let arch = vec![
            LayerSpec::Linear {
                in_f: in_dim,
                out_f: 32,
            },
            LayerSpec::ReLU,
            LayerSpec::Linear {
                in_f: 32,
                out_f: meta.cols,
            },
        ];
        let net = build_from_spec(&arch);
        let record = SurrogateMeta {
            rows: meta.rows,
            cols: meta.cols,
            g_min: 1e-6,
            g_max: 1e-4,
            v_read: 0.25,
            val_max_err: 0.011,
            val_rms_err: 0.002,
            train_pairs: 512,
            seed: 7,
            arch,
        };
        (record, net)
    }

    #[test]
    fn bundle_round_trip_is_byte_identical_and_legacy_reader_copes() {
        let (noisy, mut meta) = mapped();
        let (record, net) = surrogate_parts(&meta);
        meta.surrogate = Some(record);
        meta.surrogate_accuracy = Some(0.75);
        let mut bundle = ArtifactBundle {
            ideal_model: Some(tiny_model()),
            surrogate_model: Some(noisy.clone()),
            surrogate_net: Some(net),
            model: noisy,
            meta,
        };
        let mut buf = Vec::new();
        save_artifact_bundle(&mut bundle, &mut buf).unwrap();

        let mut loaded = load_artifact_bundle(buf.as_slice()).unwrap();
        assert!(loaded.ideal_model.is_some());
        assert!(loaded.surrogate_model.is_some());
        assert!(loaded.surrogate_net.is_some());
        let s = loaded.meta.surrogate.as_ref().unwrap();
        assert_eq!((s.rows, s.cols), (loaded.meta.rows, loaded.meta.cols));
        assert_eq!(s.val_max_err, 0.011);
        assert_eq!(loaded.meta.surrogate_accuracy, Some(0.75));

        // Byte-identical second save: the format round-trips exactly.
        let mut buf2 = Vec::new();
        save_artifact_bundle(&mut loaded, &mut buf2).unwrap();
        assert_eq!(buf, buf2, "save → load → save must be byte-identical");

        // A legacy reader ignores the tier flags and the trailing blocks but
        // still gets the exact-tier model and full meta.
        let (mut legacy_model, legacy_meta) = load_artifact(buf.as_slice()).unwrap();
        assert!(legacy_meta.surrogate.is_some());
        let x = Tensor::from_fn(&[2, 1, 8, 8], |i| (i % 13) as f32 / 13.0);
        let want = bundle.model.forward(&x, Mode::Eval).unwrap();
        let got = legacy_model.forward(&x, Mode::Eval).unwrap();
        assert_eq!(want, got);
    }

    #[test]
    fn mmap_bundle_load_matches_the_buffered_file_load() {
        let (noisy, mut meta) = mapped();
        let (record, net) = surrogate_parts(&meta);
        meta.surrogate = Some(record);
        let mut bundle = ArtifactBundle {
            ideal_model: Some(tiny_model()),
            surrogate_model: Some(noisy.clone()),
            surrogate_net: Some(net),
            model: noisy,
            meta,
        };
        let dir = std::env::temp_dir().join(format!("xbar_artifact_mmap_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("model.xbarmdl");
        save_artifact_bundle_to_file(&mut bundle, &path).unwrap();

        let mut buffered = load_artifact_bundle_from_file(&path).unwrap();
        let mut mapped = load_artifact_bundle_mmap(&path).unwrap();
        std::fs::remove_dir_all(&dir).ok();

        // Both paths must produce the same models: re-serialize each and
        // compare bytes — exact equality, weights and meta alike.
        let mut via_file = Vec::new();
        save_artifact_bundle(&mut buffered, &mut via_file).unwrap();
        let mut via_mmap = Vec::new();
        save_artifact_bundle(&mut mapped, &mut via_mmap).unwrap();
        assert_eq!(via_file, via_mmap, "mmap load must equal buffered load");
    }

    #[test]
    fn legacy_artifact_without_surrogate_loads_as_exact_only_bundle() {
        let (mut noisy, meta) = mapped();
        let buf = save_to_vec(&mut noisy, &meta);
        let bundle = load_artifact_bundle(buf.as_slice()).unwrap();
        assert!(bundle.meta.surrogate.is_none());
        assert!(bundle.ideal_model.is_none());
        assert!(bundle.surrogate_model.is_none());
        assert!(bundle.surrogate_net.is_none());
    }

    #[test]
    fn surrogate_tile_shape_mismatch_rejected_on_save_and_load() {
        let (noisy, mut meta) = mapped();
        let (mut record, net) = surrogate_parts(&meta);

        // Save-side: record claims 8×8 tiles, mapping used 16×16.
        record.rows = 8;
        record.cols = 8;
        meta.surrogate = Some(record.clone());
        let mut bundle = ArtifactBundle {
            surrogate_net: Some(net),
            model: noisy,
            meta: meta.clone(),
            ideal_model: None,
            surrogate_model: None,
        };
        let err = save_artifact_bundle(&mut bundle, &mut Vec::new()).unwrap_err();
        let msg = err.to_string();
        assert!(matches!(err, ArtifactError::Mismatch(_)), "{msg}");
        assert!(msg.contains("8×8") && msg.contains("16×16"), "{msg}");

        // Load-side: hand-craft a header carrying the bad record, so a file
        // from a buggy or hostile writer is rejected too.
        let spec = spec_of(&bundle.model);
        let meta_bytes = meta
            .to_json(&spec, TierFlags::default())
            .to_json()
            .into_bytes();
        let mut buf = Vec::new();
        buf.extend_from_slice(MAGIC);
        buf.extend_from_slice(&(meta_bytes.len() as u64).to_le_bytes());
        buf.extend_from_slice(&meta_bytes);
        let err = load_artifact(buf.as_slice()).unwrap_err();
        let msg = err.to_string();
        assert!(matches!(err, ArtifactError::Mismatch(_)), "{msg}");
        assert!(msg.contains("partitioned onto"), "{msg}");

        // Geometry-mismatched net (wrong input width for the tile shape).
        let (mut record, net) = surrogate_parts(&bundle.meta);
        record.arch[0] = LayerSpec::Linear { in_f: 3, out_f: 32 };
        bundle.meta.surrogate = Some(record);
        bundle.surrogate_net = Some(net);
        let err = save_artifact_bundle(&mut bundle, &mut Vec::new()).unwrap_err();
        assert!(err.to_string().contains("does not fit"), "{err}");
    }

    #[test]
    fn surrogate_net_without_record_is_rejected() {
        let (noisy, meta) = mapped();
        let (_, net) = surrogate_parts(&meta);
        let mut bundle = ArtifactBundle {
            surrogate_net: Some(net),
            model: noisy,
            meta,
            ideal_model: None,
            surrogate_model: None,
        };
        let err = save_artifact_bundle(&mut bundle, &mut Vec::new()).unwrap_err();
        let msg = err.to_string();
        assert!(matches!(err, ArtifactError::Mismatch(_)), "{msg}");
        assert!(msg.contains("both or neither"), "{msg}");
    }

    #[test]
    fn file_helpers_round_trip() {
        let dir = std::env::temp_dir().join(format!("xbar_artifact_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("m.xbarmdl");
        let (mut noisy, meta) = mapped();
        save_artifact_to_file(&mut noisy, &meta, &path).unwrap();
        let (_, loaded_meta) = load_artifact_from_file(&path).unwrap();
        assert_eq!(loaded_meta.label, meta.label);
        std::fs::remove_dir_all(&dir).ok();
    }
}
