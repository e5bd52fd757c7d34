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
//! ```
//!
//! Unlike a training checkpoint the artifact is self-contained: the JSON
//! meta embeds the layer-by-layer [`LayerSpec`] so a server can rebuild the
//! architecture without knowing the training scenario.
//!
//! Every loader parses the file's bytes through one path, which stops after
//! the `W'` tensor block and ignores meta keys it does not know. Older
//! writers could append further weight sets after `W'` and flag them in the
//! meta; such files load as their `W'` network.

use crate::pipeline::{MapConfig, MapReport};
use std::fmt;
use std::io::{self, Read, Write};
use std::path::Path;
use xbar_nn::arch::{build_from_spec, spec_from_json, spec_of, spec_to_json, state_len, LayerSpec};
use xbar_nn::serialize::{
    read_exact_or_truncated, read_tensor_block_into, write_tensor_block, TensorBlockError,
};
use xbar_nn::Sequential;
use xbar_obs::json::Json;

const MAGIC: &[u8; 8] = b"XBARMDL1";

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

/// A loaded artifact: the mapped `W'` network and its metadata.
#[derive(Debug, Clone)]
pub struct ArtifactBundle {
    /// The solver-mapped `W'` network.
    pub model: Sequential,
    /// Mapping provenance and statistics.
    pub meta: ArtifactMeta,
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
    /// Stuck devices located while programming.
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
        Json::Obj(vec![
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
        ])
    }

    fn to_json(&self, spec: &[LayerSpec]) -> Json {
        let opt_num = |v: Option<f64>| v.map_or(Json::Null, Json::Num);
        Json::Obj(vec![
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
        ])
    }

    fn from_json(j: &Json) -> Result<(Self, Vec<LayerSpec>), String> {
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
        };
        Ok((meta, spec))
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
    let meta_bytes = meta.to_json(&spec).to_json().into_bytes();
    writer.write_all(MAGIC)?;
    writer.write_all(&(meta_bytes.len() as u64).to_le_bytes())?;
    writer.write_all(&meta_bytes)?;
    let tensors = model.state_tensors_mut();
    write_tensor_block(writer, tensors.iter().map(|t| &**t))?;
    Ok(())
}

/// Reads an artifact from `reader` (to its end), rebuilding the model from
/// the embedded architecture spec and restoring its full inference state.
///
/// # Errors
///
/// * [`ArtifactError::Io`] on read failure;
/// * [`ArtifactError::Malformed`] for bad magic, truncation, unparsable
///   metadata, or an architecture needing more weights than the input
///   holds;
/// * [`ArtifactError::Mismatch`] when the tensor block does not fit the
///   declared architecture (names the offending tensor and sizes).
pub fn load_artifact<R: Read>(mut reader: R) -> Result<(Sequential, ArtifactMeta), ArtifactError> {
    let mut bytes = Vec::new();
    reader.read_to_end(&mut bytes)?;
    parse_artifact(&bytes)
}

/// The one parse path behind every loader: magic, meta, then the `W'`
/// tensor block; any bytes after it are ignored. Parsing from the whole
/// input lets it refuse an architecture the remaining bytes cannot hold
/// before [`build_from_spec`] allocates it.
fn parse_artifact(bytes: &[u8]) -> Result<(Sequential, ArtifactMeta), ArtifactError> {
    let mut rest = bytes;
    let mut magic = [0u8; 8];
    read_exact_or_truncated(&mut rest, &mut magic, || "reading magic".into())?;
    if &magic != MAGIC {
        return Err(ArtifactError::Malformed(format!(
            "bad magic {:?} (not an XBARMDL1 artifact)",
            String::from_utf8_lossy(&magic)
        )));
    }
    let mut len8 = [0u8; 8];
    read_exact_or_truncated(&mut rest, &mut len8, || "reading metadata length".into())?;
    let meta_len = u64::from_le_bytes(len8);
    let (meta_bytes, rest) = usize::try_from(meta_len)
        .ok()
        .and_then(|n| rest.split_at_checked(n))
        .ok_or_else(|| {
            ArtifactError::Malformed(format!(
                "reading metadata (wanted {meta_len} bytes, {} left)",
                rest.len()
            ))
        })?;
    let meta_text = std::str::from_utf8(meta_bytes)
        .map_err(|_| ArtifactError::Malformed("metadata is not UTF-8".into()))?;
    let json = Json::parse(meta_text)
        .map_err(|e| ArtifactError::Malformed(format!("metadata JSON: {e}")))?;
    let (meta, spec) = ArtifactMeta::from_json(&json).map_err(ArtifactError::Malformed)?;
    // Every state value takes four bytes of tensor block.
    match state_len(&spec).and_then(|n| n.checked_mul(4)) {
        Some(need) if need <= rest.len() => {}
        Some(need) => {
            return Err(ArtifactError::Malformed(format!(
                "the declared architecture holds {need} bytes of state but only {} bytes \
                 follow the metadata",
                rest.len()
            )))
        }
        None => {
            return Err(ArtifactError::Malformed(
                "the declared architecture holds more state than memory can address".into(),
            ))
        }
    }
    let mut model = build_from_spec(&spec);
    read_tensor_block_into(rest, &mut model.state_tensors_mut()).map_err(|e| match e {
        TensorBlockError::Mismatch(detail) => ArtifactError::Mismatch(format!(
            "{detail} — the tensor block disagrees with the architecture the \
             artifact declares; the file is corrupt or was produced by an \
             incompatible writer"
        )),
        other => other.into(),
    })?;
    Ok((model, meta))
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
    parse_artifact(&std::fs::read(path)?)
}

/// Loads an artifact by memory-mapping the file and parsing it out of the
/// page cache, without first reading the file into a buffer of its own.
/// The result is identical to [`load_artifact_from_file`]; only the I/O
/// path differs.
///
/// # Errors
///
/// Propagates mapping failures as [`ArtifactError::Io`], plus the usual
/// [`load_artifact`] errors.
pub fn load_artifact_bundle_mmap(path: impl AsRef<Path>) -> Result<ArtifactBundle, ArtifactError> {
    let map = crate::mmap::MappedFile::open(path)?;
    let (model, meta) = parse_artifact(map.as_slice())?;
    Ok(ArtifactBundle { model, meta })
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
        // narrower than the stored tensors. (A wider claim than the file
        // holds is refused before the tensor block is read; see
        // `oversized_linear_spec_in_a_small_file_is_malformed`.)
        let text = String::from_utf8_lossy(&buf).into_owned();
        let patched = text.replacen("\"out\":4", "\"out\":3", 1);
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
    /// for `to` (rewriting the length prefix), and loads the result.
    fn load_with_meta_patch(
        from: &str,
        to: &str,
    ) -> Result<(Sequential, ArtifactMeta), ArtifactError> {
        let (_, meta) = mapped();
        let mut model = Sequential::new(vec![
            Layer::Conv2d(Conv2d::new(1, 2, 3, 1, 1, 1)),
            Layer::MaxPool2d(MaxPool2d::new(2, 2)),
            Layer::Flatten(Flatten::new()),
            Layer::Dropout(Dropout::new(0.25, 3)),
            Layer::Linear(Linear::new(2 * 4 * 4, 4, 2)),
        ]);
        let buf = save_to_vec(&mut model, &meta);
        load_artifact(buf.as_slice()).expect("the unpatched artifact loads");
        let meta_len = u64::from_le_bytes(buf[8..16].try_into().unwrap()) as usize;
        let text = std::str::from_utf8(&buf[16..16 + meta_len]).unwrap();
        assert!(text.contains(from), "meta lacks {from}");
        let patched = text.replacen(from, to, 1);
        let mut out = buf[..8].to_vec();
        out.extend_from_slice(&(patched.len() as u64).to_le_bytes());
        out.extend_from_slice(patched.as_bytes());
        out.extend_from_slice(&buf[16 + meta_len..]);
        load_artifact(out.as_slice())
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
    fn overflowing_linear_spec_is_malformed() {
        // 2^33 × 2^33 weights overflow the element count itself.
        assert_malformed(
            r#""in":32,"out":4"#,
            r#""in":8589934592,"out":8589934592"#,
            "more state than memory can address",
        );
    }

    #[test]
    fn oversized_linear_spec_in_a_small_file_is_malformed() {
        // 4096 × 4096 weights are 64 MiB of state; the file holds a few KiB,
        // so the loader must refuse before building the layer.
        assert_malformed(
            r#""in":32,"out":4"#,
            r#""in":4096,"out":4096"#,
            "bytes of state",
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

    /// The full inference state of `model`, bit for bit.
    fn state_bits(model: &mut Sequential) -> Vec<u32> {
        model
            .state_tensors_mut()
            .iter()
            .flat_map(|t| t.as_slice().iter().map(|v| v.to_bits()))
            .collect()
    }

    fn write_block(out: &mut Vec<u8>, model: &mut Sequential) {
        let tensors = model.state_tensors_mut();
        write_tensor_block(out, tensors.iter().map(|t| &**t)).unwrap();
    }

    #[test]
    fn tiered_bundles_from_older_writers_load_as_their_mapped_weights() {
        // Older writers could follow `W'` with the software weights, the
        // surrogate-folded `W''` and the surrogate net, flagged by meta keys
        // this reader does not know. Build that layout by hand.
        let (mut noisy, meta) = mapped();
        let plain = save_to_vec(&mut noisy, &meta);
        let (_, want_meta) = load_artifact(plain.as_slice()).unwrap();
        let meta_len = u64::from_le_bytes(plain[8..16].try_into().unwrap()) as usize;
        let meta_text = std::str::from_utf8(&plain[16..16 + meta_len]).unwrap();
        let Json::Obj(mut fields) = Json::parse(meta_text).unwrap() else {
            panic!("meta is an object")
        };
        let net_arch = [
            LayerSpec::Linear {
                in_f: 2 * 16 + 3 * 16,
                out_f: 32,
            },
            LayerSpec::ReLU,
            LayerSpec::Linear {
                in_f: 32,
                out_f: 16,
            },
        ];
        let num = |pairs: &[(&str, f64)]| -> Vec<(String, Json)> {
            pairs
                .iter()
                .map(|&(k, v)| (k.to_string(), Json::Num(v)))
                .collect()
        };
        let mut record = num(&[
            ("rows", 16.0),
            ("cols", 16.0),
            ("g_min", 1e-6),
            ("g_max", 1e-4),
            ("v_read", 0.25),
            ("val_max_err", 0.011),
            ("val_rms_err", 0.002),
            ("train_pairs", 512.0),
            ("seed", 7.0),
        ]);
        record.push(("arch".into(), spec_to_json(&net_arch)));
        fields.push((
            "tiers".into(),
            Json::Obj(vec![
                ("ideal".into(), Json::Bool(true)),
                ("surrogate".into(), Json::Bool(true)),
            ]),
        ));
        fields.push(("surrogate".into(), Json::Obj(record)));
        fields.push(("surrogate_accuracy".into(), Json::Num(0.75)));
        let old_meta = Json::Obj(fields).to_json();

        let mut bytes = MAGIC.to_vec();
        bytes.extend_from_slice(&(old_meta.len() as u64).to_le_bytes());
        bytes.extend_from_slice(old_meta.as_bytes());
        let w_start = bytes.len();
        write_block(&mut bytes, &mut noisy);
        let w_end = bytes.len();
        let mut folded = noisy.clone();
        for t in folded.state_tensors_mut() {
            t.as_mut_slice().iter_mut().for_each(|v| *v = -*v);
        }
        write_block(&mut bytes, &mut tiny_model());
        write_block(&mut bytes, &mut folded);
        write_block(&mut bytes, &mut build_from_spec(&net_arch));

        let want = state_bits(&mut noisy);
        let (mut from_reader, reader_meta) = load_artifact(bytes.as_slice()).unwrap();
        assert_eq!(state_bits(&mut from_reader), want, "in-memory load");
        assert_eq!(reader_meta, want_meta);
        let dir = std::env::temp_dir().join(format!("xbar_artifact_old_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("tiered.xbarmdl");
        std::fs::write(&path, &bytes).unwrap();
        let from_file = load_artifact_from_file(&path);
        let from_mmap = load_artifact_bundle_mmap(&path);
        std::fs::remove_dir_all(&dir).ok();
        let (mut from_file, file_meta) = from_file.unwrap();
        assert_eq!(state_bits(&mut from_file), want, "file load");
        assert_eq!(file_meta, want_meta);
        let mut from_mmap = from_mmap.unwrap();
        assert_eq!(state_bits(&mut from_mmap.model), want, "mmap load");
        assert_eq!(from_mmap.meta, want_meta);

        // A cut inside `W'` is still an error, however much the old blocks
        // after it would have held.
        let cut = &bytes[..(w_start + w_end) / 2];
        let err = load_artifact(cut).unwrap_err();
        assert!(matches!(err, ArtifactError::Malformed(_)), "{err}");
    }

    #[test]
    fn mmap_bundle_load_matches_the_buffered_file_load() {
        let (mut noisy, meta) = mapped();
        let dir = std::env::temp_dir().join(format!("xbar_artifact_mmap_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("model.xbarmdl");
        save_artifact_to_file(&mut noisy, &meta, &path).unwrap();

        let buffered = load_artifact_from_file(&path).unwrap();
        let mapped = load_artifact_bundle_mmap(&path).unwrap();
        std::fs::remove_dir_all(&dir).ok();

        // Both paths must produce the same model: re-serialize each and
        // compare bytes — exact equality, weights and meta alike.
        let (mut model, meta) = buffered;
        let via_file = save_to_vec(&mut model, &meta);
        let ArtifactBundle { mut model, meta } = mapped;
        let via_mmap = save_to_vec(&mut model, &meta);
        assert_eq!(via_file, via_mmap, "mmap load must equal buffered load");
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
