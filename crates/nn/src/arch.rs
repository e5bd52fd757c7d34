//! Architecture descriptors: a serialisable, layer-by-layer summary of a
//! [`Sequential`] model.
//!
//! Checkpoints (`crate::checkpoint`) deliberately store only tensor values
//! and require the caller to rebuild the architecture; a *served* artifact
//! must be self-contained, so [`LayerSpec`] captures the hyper-parameters of
//! every layer. [`spec_of`] extracts the descriptor from a live model and
//! [`build_from_spec`] reconstructs an identically-shaped model (with fresh
//! parameters — load a tensor block over them afterwards).

use crate::layers::{BatchNorm2d, Conv2d, Dropout, Flatten, Linear, MaxPool2d, ReLU};
use crate::{Layer, Sequential};
use xbar_obs::json::Json;

/// The hyper-parameters of one layer, sufficient to reconstruct it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LayerSpec {
    /// 2-D convolution.
    Conv2d {
        /// Input channels.
        in_c: usize,
        /// Output channels.
        out_c: usize,
        /// Kernel side length.
        kernel: usize,
        /// Spatial stride.
        stride: usize,
        /// Zero padding.
        pad: usize,
    },
    /// Fully-connected layer.
    Linear {
        /// Input features.
        in_f: usize,
        /// Output features.
        out_f: usize,
    },
    /// Batch normalisation over channels.
    BatchNorm2d {
        /// Channel count.
        channels: usize,
    },
    /// Rectified linear unit.
    ReLU,
    /// Max pooling.
    MaxPool2d {
        /// Window side length.
        kernel: usize,
        /// Window stride.
        stride: usize,
    },
    /// Flatten to `[N, features]`.
    Flatten,
    /// Inverted dropout.
    Dropout {
        /// Drop probability.
        p: f32,
    },
}

/// Extracts the architecture descriptor of `model`.
pub fn spec_of(model: &Sequential) -> Vec<LayerSpec> {
    model
        .layers()
        .iter()
        .map(|layer| match layer {
            Layer::Conv2d(l) => LayerSpec::Conv2d {
                in_c: l.in_channels(),
                out_c: l.out_channels(),
                kernel: l.kernel_size(),
                stride: l.stride(),
                pad: l.padding(),
            },
            Layer::Linear(l) => LayerSpec::Linear {
                in_f: l.in_features(),
                out_f: l.out_features(),
            },
            Layer::BatchNorm2d(l) => LayerSpec::BatchNorm2d {
                channels: l.channels(),
            },
            Layer::ReLU(_) => LayerSpec::ReLU,
            Layer::MaxPool2d(l) => LayerSpec::MaxPool2d {
                kernel: l.kernel_size(),
                stride: l.stride(),
            },
            Layer::Flatten(_) => LayerSpec::Flatten,
            Layer::Dropout(l) => LayerSpec::Dropout { p: l.probability() },
        })
        .collect()
}

/// Builds a model matching `spec`. Learnable parameters are freshly
/// initialised (deterministically, per-layer seeds) — callers restoring a
/// saved model overwrite them from a tensor block.
pub fn build_from_spec(spec: &[LayerSpec]) -> Sequential {
    let layers = spec
        .iter()
        .enumerate()
        .map(|(i, s)| {
            let seed = i as u64;
            match *s {
                LayerSpec::Conv2d {
                    in_c,
                    out_c,
                    kernel,
                    stride,
                    pad,
                } => Layer::Conv2d(Conv2d::new(in_c, out_c, kernel, stride, pad, seed)),
                LayerSpec::Linear { in_f, out_f } => Layer::Linear(Linear::new(in_f, out_f, seed)),
                LayerSpec::BatchNorm2d { channels } => {
                    Layer::BatchNorm2d(BatchNorm2d::new(channels))
                }
                LayerSpec::ReLU => Layer::ReLU(ReLU::new()),
                LayerSpec::MaxPool2d { kernel, stride } => {
                    Layer::MaxPool2d(MaxPool2d::new(kernel, stride))
                }
                LayerSpec::Flatten => Layer::Flatten(Flatten::new()),
                LayerSpec::Dropout { p } => Layer::Dropout(Dropout::new(p, seed)),
            }
        })
        .collect();
    Sequential::new(layers)
}

/// Elements of the full inference state (`Sequential::state_tensors_mut`)
/// of a model built from `spec`: conv and linear weights and biases, and
/// BatchNorm's γ, β and running statistics. `None` when a count overflows
/// `usize`, including a conv fan-in `Conv2d::new` would form on its own.
/// Loaders check it against the bytes they hold before [`build_from_spec`]
/// allocates anything.
pub fn state_len(spec: &[LayerSpec]) -> Option<usize> {
    spec.iter().try_fold(0usize, |total, layer| {
        let len = match *layer {
            LayerSpec::Conv2d {
                in_c,
                out_c,
                kernel,
                ..
            } => {
                let fan_in = in_c.checked_mul(kernel)?.checked_mul(kernel)?;
                out_c.checked_mul(fan_in)?.checked_add(out_c)?
            }
            LayerSpec::Linear { in_f, out_f } => out_f.checked_mul(in_f)?.checked_add(out_f)?,
            LayerSpec::BatchNorm2d { channels } => channels.checked_mul(4)?,
            LayerSpec::ReLU
            | LayerSpec::MaxPool2d { .. }
            | LayerSpec::Flatten
            | LayerSpec::Dropout { .. } => 0,
        };
        total.checked_add(len)
    })
}

impl LayerSpec {
    /// JSON object representation (`{"kind": "conv2d", ...}`).
    pub fn to_json(&self) -> Json {
        let num = |v: usize| Json::Num(v as f64);
        match *self {
            LayerSpec::Conv2d {
                in_c,
                out_c,
                kernel,
                stride,
                pad,
            } => Json::Obj(vec![
                ("kind".into(), Json::Str("conv2d".into())),
                ("in".into(), num(in_c)),
                ("out".into(), num(out_c)),
                ("kernel".into(), num(kernel)),
                ("stride".into(), num(stride)),
                ("pad".into(), num(pad)),
            ]),
            LayerSpec::Linear { in_f, out_f } => Json::Obj(vec![
                ("kind".into(), Json::Str("linear".into())),
                ("in".into(), num(in_f)),
                ("out".into(), num(out_f)),
            ]),
            LayerSpec::BatchNorm2d { channels } => Json::Obj(vec![
                ("kind".into(), Json::Str("batchnorm2d".into())),
                ("channels".into(), num(channels)),
            ]),
            LayerSpec::ReLU => Json::Obj(vec![("kind".into(), Json::Str("relu".into()))]),
            LayerSpec::MaxPool2d { kernel, stride } => Json::Obj(vec![
                ("kind".into(), Json::Str("maxpool2d".into())),
                ("kernel".into(), num(kernel)),
                ("stride".into(), num(stride)),
            ]),
            LayerSpec::Flatten => Json::Obj(vec![("kind".into(), Json::Str("flatten".into()))]),
            LayerSpec::Dropout { p } => Json::Obj(vec![
                ("kind".into(), Json::Str("dropout".into())),
                ("p".into(), Json::Num(p as f64)),
            ]),
        }
    }

    /// Parses a [`LayerSpec::to_json`] object back, rejecting values no
    /// layer can be built with (a zero kernel or stride, a drop probability
    /// outside `[0, 1)`), so [`build_from_spec`] never panics on a parsed
    /// spec.
    ///
    /// # Errors
    ///
    /// Returns a description of the missing, unknown or invalid field.
    pub fn from_json(j: &Json) -> Result<Self, String> {
        let kind = j
            .get("kind")
            .and_then(Json::as_str)
            .ok_or("layer spec without \"kind\"")?;
        let field = |name: &str| -> Result<usize, String> {
            j.get(name)
                .and_then(Json::as_u64)
                .map(|v| v as usize)
                .ok_or_else(|| format!("layer spec {kind:?} missing field {name:?}"))
        };
        let nonzero = |name: &str| -> Result<usize, String> {
            match field(name)? {
                0 => Err(format!("layer spec {kind:?} has {name:?} 0")),
                v => Ok(v),
            }
        };
        match kind {
            "conv2d" => Ok(LayerSpec::Conv2d {
                in_c: field("in")?,
                out_c: field("out")?,
                kernel: nonzero("kernel")?,
                stride: nonzero("stride")?,
                pad: field("pad")?,
            }),
            "linear" => Ok(LayerSpec::Linear {
                in_f: field("in")?,
                out_f: field("out")?,
            }),
            "batchnorm2d" => Ok(LayerSpec::BatchNorm2d {
                channels: field("channels")?,
            }),
            "relu" => Ok(LayerSpec::ReLU),
            "maxpool2d" => Ok(LayerSpec::MaxPool2d {
                kernel: nonzero("kernel")?,
                stride: nonzero("stride")?,
            }),
            "flatten" => Ok(LayerSpec::Flatten),
            "dropout" => {
                let p = j
                    .get("p")
                    .and_then(Json::as_f64)
                    .ok_or("dropout spec missing \"p\"")? as f32;
                if !(0.0..1.0).contains(&p) {
                    return Err(format!("dropout spec has \"p\" {p}, outside [0, 1)"));
                }
                Ok(LayerSpec::Dropout { p })
            }
            other => Err(format!("unknown layer kind {other:?}")),
        }
    }
}

/// Serialises a whole architecture as a JSON array.
pub fn spec_to_json(spec: &[LayerSpec]) -> Json {
    Json::Arr(spec.iter().map(LayerSpec::to_json).collect())
}

/// Parses a [`spec_to_json`] array back.
///
/// # Errors
///
/// Returns a description of the first malformed layer entry.
pub fn spec_from_json(j: &Json) -> Result<Vec<LayerSpec>, String> {
    j.as_arr()
        .ok_or("architecture spec is not an array")?
        .iter()
        .map(LayerSpec::from_json)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Mode;
    use xbar_tensor::Tensor;

    fn sample() -> Sequential {
        Sequential::new(vec![
            Layer::Conv2d(Conv2d::new(3, 4, 3, 1, 1, 7)),
            Layer::BatchNorm2d(BatchNorm2d::new(4)),
            Layer::ReLU(ReLU::new()),
            Layer::MaxPool2d(MaxPool2d::new(2, 2)),
            Layer::Flatten(Flatten::new()),
            Layer::Dropout(Dropout::new(0.5, 8)),
            Layer::Linear(Linear::new(4 * 2 * 2, 5, 9)),
        ])
    }

    #[test]
    fn spec_round_trips_through_json() {
        let spec = spec_of(&sample());
        let json = spec_to_json(&spec);
        let parsed = spec_from_json(&Json::parse(&json.to_json()).unwrap()).unwrap();
        assert_eq!(spec, parsed);
    }

    #[test]
    fn rebuilt_model_has_matching_shapes() {
        let mut original = sample();
        let spec = spec_of(&original);
        let mut rebuilt = build_from_spec(&spec);
        let a: Vec<Vec<usize>> = original
            .state_tensors_mut()
            .iter()
            .map(|t| t.shape().to_vec())
            .collect();
        let b: Vec<Vec<usize>> = rebuilt
            .state_tensors_mut()
            .iter()
            .map(|t| t.shape().to_vec())
            .collect();
        assert_eq!(a, b);
        // And it runs.
        let y = rebuilt
            .forward(&Tensor::zeros(&[2, 3, 4, 4]), Mode::Eval)
            .unwrap();
        assert_eq!(y.shape(), &[2, 5]);
    }

    #[test]
    fn state_len_counts_every_state_tensor_and_catches_overflow() {
        let spec = spec_of(&sample());
        let held: usize = build_from_spec(&spec)
            .state_tensors_mut()
            .iter()
            .map(|t| t.len())
            .sum();
        assert_eq!(state_len(&spec), Some(held));
        let huge = 1usize << 33;
        let linear = LayerSpec::Linear {
            in_f: huge,
            out_f: huge,
        };
        assert_eq!(state_len(&[linear]), None);
        let no_filters = LayerSpec::Conv2d {
            in_c: huge,
            out_c: 0,
            kernel: huge,
            stride: 1,
            pad: 0,
        };
        assert_eq!(state_len(&[no_filters]), None, "the fan-in alone overflows");
    }

    #[test]
    fn unknown_kind_rejected() {
        let j = Json::parse("[{\"kind\":\"gelu\"}]").unwrap();
        let err = spec_from_json(&j).unwrap_err();
        assert!(err.contains("gelu"), "{err}");
    }
}
