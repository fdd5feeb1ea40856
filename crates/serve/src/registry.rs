//! The model registry: one warm [`Detector`] behind an atomically swappable
//! `Arc`, reloadable from disk while requests are in flight.
//!
//! `POST /reload` re-reads the model file, **validates the candidate** —
//! the sealed-footer checksum via [`sevuldet::load_detector`], plus a smoke
//! forward pass proving it can actually score — and only then swaps the
//! `Arc` under a short write lock. A candidate that is missing, corrupt, or
//! structurally wrong for its declared architecture is rejected with a
//! typed [`RegistryError`] and the previous model keeps serving. Batch
//! workers snapshot the `Arc` once per batch, so a batch that started on
//! the old model finishes on the old model — reloads never tear a forward
//! pass and never drop in-flight requests.

use sevuldet::{load_detector, Detector, PersistError, Precision};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

/// One slot's reload outcome: the slot name paired with its new version,
/// or the error that kept the previous model serving.
pub type SlotReload = (String, Result<u64, RegistryError>);

/// Why a model could not be (re)loaded. The old model keeps serving in
/// every case.
#[derive(Debug)]
pub enum RegistryError {
    /// The model file could not be read.
    Io(std::io::Error),
    /// The bytes are not a valid saved detector (bad magic, failed
    /// checksum, truncation, wrong-architecture parameters, ...).
    Invalid(PersistError),
    /// The detector deserialized but failed the smoke forward pass
    /// (panicked or produced a non-probability) — never swap it in.
    SmokeTest(String),
    /// The detector cannot serve at the requested precision tier (the f32
    /// tier asked of an architecture without an f32 forward).
    Precision(String),
    /// The registry configuration itself is invalid (duplicate model name,
    /// empty model set, split naming an unknown model, ...).
    Config(String),
}

impl std::fmt::Display for RegistryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RegistryError::Io(e) => write!(f, "reading model file: {e}"),
            RegistryError::Invalid(e) => write!(f, "{e}"),
            RegistryError::SmokeTest(msg) => {
                write!(f, "candidate model failed smoke test: {msg}")
            }
            RegistryError::Precision(msg) => {
                write!(f, "model cannot serve at requested precision: {msg}")
            }
            RegistryError::Config(msg) => write!(f, "registry configuration: {msg}"),
        }
    }
}

impl std::error::Error for RegistryError {}

/// One loaded model generation.
#[derive(Debug)]
pub struct LoadedModel {
    /// The warm detector (scoring takes `&self`; workers clone per shard).
    pub detector: Detector,
    /// Monotonic generation number, starting at 1 for the initial load.
    pub version: u64,
}

/// A hot-reloadable model slot tied to a file path.
#[derive(Debug)]
pub struct ModelRegistry {
    path: PathBuf,
    current: RwLock<Arc<LoadedModel>>,
    next_version: AtomicU64,
    precision: Precision,
}

impl ModelRegistry {
    /// Loads and validates the initial model from `path` at the f64
    /// reference precision.
    ///
    /// # Errors
    ///
    /// A typed [`RegistryError`] when the file is unreadable, invalid, or
    /// fails the smoke forward pass.
    pub fn open(path: impl AsRef<Path>) -> Result<ModelRegistry, RegistryError> {
        ModelRegistry::open_with_precision(path, Precision::F64)
    }

    /// [`ModelRegistry::open`], but every load (initial and reload) serves
    /// at `precision`. The smoke test runs *after* the tier switch, so a
    /// candidate that cannot score at the serving precision is rejected the
    /// same way a corrupt file is.
    ///
    /// # Errors
    ///
    /// As [`ModelRegistry::open`], plus [`RegistryError::Precision`] when
    /// the model cannot run at `precision`.
    pub fn open_with_precision(
        path: impl AsRef<Path>,
        precision: Precision,
    ) -> Result<ModelRegistry, RegistryError> {
        let path = path.as_ref().to_path_buf();
        let detector = read_model(&path, precision)?;
        Ok(ModelRegistry {
            path,
            current: RwLock::new(Arc::new(LoadedModel {
                detector,
                version: 1,
            })),
            next_version: AtomicU64::new(2),
            precision,
        })
    }

    /// The precision tier every load serves at.
    pub fn precision(&self) -> Precision {
        self.precision
    }

    /// The currently served model. Callers hold the `Arc` for as long as
    /// they need the model; a concurrent reload swaps the slot without
    /// invalidating it.
    pub fn current(&self) -> Arc<LoadedModel> {
        self.current
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .clone()
    }

    /// Re-reads and validates the model file, swapping it in only on
    /// success; the new version number is returned. On any failure the
    /// previous model keeps serving, untouched.
    ///
    /// # Errors
    ///
    /// A typed [`RegistryError`] (see [`ModelRegistry::open`]).
    pub fn reload(&self) -> Result<u64, RegistryError> {
        let detector = read_model(&self.path, self.precision)?;
        let version = self.next_version.fetch_add(1, Ordering::Relaxed);
        let loaded = Arc::new(LoadedModel { detector, version });
        *self.current.write().unwrap_or_else(|e| e.into_inner()) = loaded;
        Ok(version)
    }

    /// The path reloads are served from.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

/// How a request selects models out of a [`MultiRegistry`]: one model by
/// slot index, or an ensemble of several (scored independently, combined by
/// vote). Indices are stable for the life of the registry — the model set
/// is fixed at startup; only the *contents* of each slot hot-reload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ModelChoice {
    /// Route to one model.
    Single(usize),
    /// Score on every listed member and combine with
    /// [`sevuldet::combine_ensemble`].
    Ensemble(Vec<usize>),
}

/// Parses a model selector — a plain name, or `ensemble:a,b,c` — resolving
/// each name to a slot index with `index_of`. The one parser behind the
/// server's `model` field and the CLI's `--model-name`.
///
/// # Errors
///
/// The unresolvable model name, verbatim so callers can name it (an
/// unknown ensemble member names that member), or a description of an
/// empty ensemble.
pub fn parse_model_choice(
    spec: &str,
    index_of: impl Fn(&str) -> Option<usize>,
) -> Result<ModelChoice, String> {
    let Some(list) = spec.strip_prefix("ensemble:") else {
        return index_of(spec)
            .map(ModelChoice::Single)
            .ok_or_else(|| spec.to_string());
    };
    let members = list
        .split(',')
        .map(str::trim)
        .filter(|name| !name.is_empty())
        .map(|name| index_of(name).ok_or_else(|| name.to_string()))
        .collect::<Result<Vec<usize>, String>>()?;
    if members.is_empty() {
        return Err("ensemble with no members".to_string());
    }
    Ok(ModelChoice::Ensemble(members))
}

/// A named collection of hot-reloadable model slots plus an optional
/// weighted A/B split. The first slot is the **default**: requests that
/// name no model (and no split is configured) route there, and its version
/// backs the unlabeled `sevuldet_model_version` gauge, so a single-model
/// fleet behaves exactly as before this registry existed.
#[derive(Debug)]
pub struct MultiRegistry {
    slots: Vec<(String, ModelRegistry)>,
    split: Option<Vec<(usize, u32)>>,
}

impl From<ModelRegistry> for MultiRegistry {
    /// Wraps a single anonymous registry under the name `default`.
    fn from(reg: ModelRegistry) -> MultiRegistry {
        MultiRegistry {
            slots: vec![("default".to_string(), reg)],
            split: None,
        }
    }
}

impl MultiRegistry {
    /// Loads and validates every named model at `precision`. The order of
    /// `specs` is preserved; the first entry becomes the default model.
    ///
    /// # Errors
    ///
    /// [`RegistryError::Config`] for an empty spec list or duplicate name;
    /// otherwise the failing model's [`RegistryError`] with its name folded
    /// into the message.
    pub fn open(
        specs: &[(String, PathBuf)],
        precision: Precision,
    ) -> Result<MultiRegistry, RegistryError> {
        if specs.is_empty() {
            return Err(RegistryError::Config("no models configured".into()));
        }
        let mut slots = Vec::with_capacity(specs.len());
        for (name, path) in specs {
            if slots.iter().any(|(n, _)| n == name) {
                return Err(RegistryError::Config(format!(
                    "duplicate model name `{name}`"
                )));
            }
            let reg = ModelRegistry::open_with_precision(path, precision).map_err(|e| match e {
                RegistryError::Io(io) => RegistryError::Io(std::io::Error::new(
                    io.kind(),
                    format!("model `{name}`: {io}"),
                )),
                other => other,
            })?;
            slots.push((name.clone(), reg));
        }
        Ok(MultiRegistry { slots, split: None })
    }

    /// Number of model slots.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether the registry holds no models (never true for a constructed
    /// registry; present for API completeness).
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// The default model's name (the first `--model` flag).
    pub fn default_name(&self) -> &str {
        &self.slots[0].0
    }

    /// Model names in slot order.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.slots.iter().map(|(n, _)| n.as_str())
    }

    /// The slot index of `name`.
    pub fn index_of(&self, name: &str) -> Option<usize> {
        self.slots.iter().position(|(n, _)| n == name)
    }

    /// The registry in slot `idx` (panics on out-of-range — indices come
    /// from [`MultiRegistry::resolve`] and are always valid).
    pub fn by_index(&self, idx: usize) -> &ModelRegistry {
        &self.slots[idx].1
    }

    /// The name of slot `idx`.
    pub fn name_of(&self, idx: usize) -> &str {
        &self.slots[idx].0
    }

    /// Resolves a request's `model` field with [`parse_model_choice`]
    /// against this registry's slot names.
    ///
    /// # Errors
    ///
    /// The unresolvable model name (or a description of an empty ensemble).
    pub fn resolve(&self, spec: &str) -> Result<ModelChoice, String> {
        parse_model_choice(spec, |name| self.index_of(name))
    }

    /// Configures the weighted A/B split for requests that name no model.
    ///
    /// # Errors
    ///
    /// [`RegistryError::Config`] when an entry names an unknown model, a
    /// weight is zero, or the list is empty.
    pub fn set_split(&mut self, entries: &[(String, u32)]) -> Result<(), RegistryError> {
        if entries.is_empty() {
            return Err(RegistryError::Config("empty split".into()));
        }
        let mut resolved = Vec::with_capacity(entries.len());
        for (name, weight) in entries {
            let idx = self.index_of(name).ok_or_else(|| {
                RegistryError::Config(format!("split names unknown model `{name}`"))
            })?;
            if *weight == 0 {
                return Err(RegistryError::Config(format!(
                    "split weight for `{name}` must be positive"
                )));
            }
            resolved.push((idx, *weight));
        }
        self.split = Some(resolved);
        Ok(())
    }

    /// The configured split as `(slot index, weight)` pairs.
    pub fn split(&self) -> Option<&[(usize, u32)]> {
        self.split.as_deref()
    }

    /// Picks the slot for a request that named no model: the default slot,
    /// or — when a split is configured — a deterministic weighted choice
    /// keyed on the source digest. The same source always lands on the same
    /// model, so the balancer's consistent-hash affinity and the query
    /// cache stay coherent per model.
    pub fn pick(&self, source: &str) -> usize {
        let Some(split) = &self.split else { return 0 };
        let digest = sevuldet::sha256_hex(source.as_bytes());
        // The leading 64 bits of the digest, uniform over sources.
        let point = u64::from_str_radix(&digest[..16], 16).unwrap_or(0);
        let total: u64 = split.iter().map(|(_, w)| u64::from(*w)).sum();
        let mut ticket = point % total;
        for (idx, w) in split {
            let w = u64::from(*w);
            if ticket < w {
                return *idx;
            }
            ticket -= w;
        }
        split[0].0
    }

    /// Reloads one named slot, or every slot when `name` is `None`. Each
    /// result carries the slot name; a failed slot keeps its previous model
    /// serving and never affects the others.
    ///
    /// # Errors
    ///
    /// [`RegistryError::Config`] when `name` is unknown (inside that slot's
    /// result entry would be wrong — the scope itself is invalid).
    pub fn reload(&self, name: Option<&str>) -> Result<Vec<SlotReload>, RegistryError> {
        match name {
            Some(n) => {
                let idx = self
                    .index_of(n)
                    .ok_or_else(|| RegistryError::Config(format!("unknown model `{n}`")))?;
                Ok(vec![(n.to_string(), self.slots[idx].1.reload())])
            }
            None => Ok(self
                .slots
                .iter()
                .map(|(n, reg)| (n.clone(), reg.reload()))
                .collect()),
        }
    }

    /// `(name, version)` for every slot, in slot order.
    pub fn versions(&self) -> Vec<(String, u64)> {
        self.slots
            .iter()
            .map(|(n, reg)| (n.clone(), reg.current().version))
            .collect()
    }
}

fn read_model(path: &Path, precision: Precision) -> Result<Detector, RegistryError> {
    let text = std::fs::read_to_string(path).map_err(RegistryError::Io)?;
    let mut detector = load_detector(&text).map_err(RegistryError::Invalid)?;
    detector
        .set_precision(precision)
        .map_err(|e| RegistryError::Precision(e.to_string()))?;
    smoke_test(detector)
}

/// One tiny forward pass before a candidate may serve: a model that
/// deserialized cleanly can still blow up at score time (NaN weights, an
/// internal inconsistency the shape checks cannot see). Panics are caught
/// so a pathological candidate cannot take down the reload path itself.
fn smoke_test(mut detector: Detector) -> Result<Detector, RegistryError> {
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let probe = vec![vec!["strcpy".to_string(), "buf".to_string()]];
        let probs = detector.predict_batch_mut(&probe, 1);
        (probs.len(), probs.first().copied())
    }));
    match result {
        Ok((1, Some(p))) if p.is_finite() && (0.0..=1.0).contains(&p) => Ok(detector),
        Ok((_, p)) => Err(RegistryError::SmokeTest(format!(
            "probe scored {p:?}, want one probability in [0, 1]"
        ))),
        Err(_) => Err(RegistryError::SmokeTest(
            "probe forward pass panicked".into(),
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sevuldet::{save_detector, Detector, GadgetSpec, ModelKind, TrainConfig};
    use sevuldet_dataset::{sard, SardConfig};

    fn tiny_model_text(seed: u64) -> String {
        let samples = sard::generate(&SardConfig {
            per_category: 4,
            seed,
            ..SardConfig::default()
        });
        let corpus = GadgetSpec::path_sensitive().extract(&samples);
        let cfg = TrainConfig {
            embed_dim: 8,
            w2v_epochs: 1,
            epochs: 1,
            cnn_channels: 6,
            seed,
            ..TrainConfig::quick()
        };
        let mut det = Detector::train(&corpus, ModelKind::SevulDet, &cfg);
        save_detector(&mut det)
    }

    #[test]
    fn registry_opens_at_fast_precision_tiers() {
        let dir = std::env::temp_dir().join(format!("svd-registry-prec-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("m.svd");
        std::fs::write(&path, tiny_model_text(3)).unwrap();
        let reg = ModelRegistry::open_with_precision(&path, Precision::F32)
            .unwrap_or_else(|e| panic!("open at f32: {e}"));
        assert_eq!(reg.precision(), Precision::F32);
        // The smoke test already proved the tier scores a probability;
        // reloads keep the tier.
        assert_eq!(reg.reload().expect("reload keeps tier"), 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn reload_bumps_version_and_old_arc_survives() {
        let dir = std::env::temp_dir().join(format!("svd-registry-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("m.svd");
        std::fs::write(&path, tiny_model_text(1)).unwrap();
        let reg = ModelRegistry::open(&path).expect("initial load");
        let before = reg.current();
        assert_eq!(before.version, 1);

        std::fs::write(&path, tiny_model_text(2)).unwrap();
        let v = reg.reload().expect("reload");
        assert_eq!(v, 2);
        assert_eq!(reg.current().version, 2);
        // The pre-reload handle still works: in-flight batches finish on the
        // model they started with.
        assert_eq!(before.version, 1);
        let p = before.detector.clone().predict(&["strcpy".to_string()]);
        assert!((0.0..=1.0).contains(&p));

        // A broken file fails the reload with a typed error but keeps
        // serving the old model.
        std::fs::write(&path, "not a model").unwrap();
        assert!(matches!(
            reg.reload().unwrap_err(),
            RegistryError::Invalid(PersistError::BadMagic)
        ));
        assert_eq!(reg.current().version, 2);

        // A deleted file is an I/O error, also non-fatal.
        std::fs::remove_file(&path).unwrap();
        assert!(matches!(reg.reload().unwrap_err(), RegistryError::Io(_)));
        assert_eq!(reg.current().version, 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A two-model registry (`champion`, `challenger`) in a fresh temp dir.
    fn two_model_registry(tag: &str) -> (std::path::PathBuf, MultiRegistry) {
        let dir = std::env::temp_dir().join(format!("svd-multireg-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let a = dir.join("a.svd");
        let b = dir.join("b.svd");
        std::fs::write(&a, tiny_model_text(1)).unwrap();
        std::fs::write(&b, tiny_model_text(2)).unwrap();
        let reg = MultiRegistry::open(
            &[("champion".to_string(), a), ("challenger".to_string(), b)],
            Precision::F64,
        )
        .expect("two-model open");
        (dir, reg)
    }

    #[test]
    fn multi_registry_resolves_names_and_ensembles() {
        let (dir, reg) = two_model_registry("resolve");
        assert_eq!(reg.len(), 2);
        assert_eq!(reg.default_name(), "champion");
        assert_eq!(reg.resolve("champion"), Ok(ModelChoice::Single(0)));
        assert_eq!(reg.resolve("challenger"), Ok(ModelChoice::Single(1)));
        assert_eq!(
            reg.resolve("ensemble:champion,challenger"),
            Ok(ModelChoice::Ensemble(vec![0, 1]))
        );
        // The offending name comes back verbatim so routes can build the
        // typed 404 body.
        assert_eq!(reg.resolve("nope"), Err("nope".to_string()));
        assert_eq!(
            reg.resolve("ensemble:champion,nope"),
            Err("nope".to_string())
        );
        assert_eq!(
            reg.resolve("ensemble:"),
            Err("ensemble with no members".to_string())
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn multi_registry_rejects_bad_configurations() {
        assert!(matches!(
            MultiRegistry::open(&[], Precision::F64),
            Err(RegistryError::Config(_))
        ));
        let dir = std::env::temp_dir().join(format!("svd-multireg-dup-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let a = dir.join("a.svd");
        std::fs::write(&a, tiny_model_text(1)).unwrap();
        assert!(matches!(
            MultiRegistry::open(
                &[("m".to_string(), a.clone()), ("m".to_string(), a.clone())],
                Precision::F64
            ),
            Err(RegistryError::Config(_))
        ));
        let mut reg = MultiRegistry::open(&[("m".to_string(), a)], Precision::F64).unwrap();
        assert!(matches!(
            reg.set_split(&[("ghost".to_string(), 1)]),
            Err(RegistryError::Config(_))
        ));
        assert!(matches!(
            reg.set_split(&[("m".to_string(), 0)]),
            Err(RegistryError::Config(_))
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn split_pick_is_deterministic_per_source_digest() {
        let (dir, mut reg) = two_model_registry("split");
        // No split: everything routes to the default slot.
        assert_eq!(reg.pick("int main() {}"), 0);
        reg.set_split(&[("champion".to_string(), 90), ("challenger".to_string(), 10)])
            .unwrap();
        // Deterministic: the same source always lands on the same slot,
        // across calls and registry instances (the digest decides).
        let sources: Vec<String> = (0..200)
            .map(|i| format!("void f{i}(char *p) {{ strcpy(p, \"x\"); }}"))
            .collect();
        let picks: Vec<usize> = sources.iter().map(|s| reg.pick(s)).collect();
        let again: Vec<usize> = sources.iter().map(|s| reg.pick(s)).collect();
        assert_eq!(picks, again);
        // A 90/10 split over 200 distinct sources hits both slots, with
        // the champion taking the clear majority.
        let challenger = picks.iter().filter(|&&p| p == 1).count();
        assert!(challenger > 0, "10% arm never chosen over 200 sources");
        assert!(
            challenger < 60,
            "10% arm chosen {challenger}/200 times — weighting is off"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn scoped_reload_isolates_the_corrupt_slot() {
        let (dir, reg) = two_model_registry("scoped");
        // Corrupt the challenger's file; a reload scoped to it fails inside
        // its result entry, keeps its old model serving, and never touches
        // the champion.
        std::fs::write(dir.join("b.svd"), "not a model").unwrap();
        let results = reg.reload(Some("challenger")).expect("valid scope");
        assert_eq!(results.len(), 1);
        assert_eq!(results[0].0, "challenger");
        assert!(results[0].1.is_err());
        assert_eq!(
            reg.versions(),
            vec![("champion".to_string(), 1), ("challenger".to_string(), 1)]
        );
        // The champion reloads independently.
        let results = reg.reload(Some("champion")).expect("valid scope");
        assert_eq!(results[0].1.as_ref().copied().unwrap(), 2);
        assert_eq!(
            reg.versions(),
            vec![("champion".to_string(), 2), ("challenger".to_string(), 1)]
        );
        // A broadcast reports each slot's own outcome.
        let results = reg.reload(None).expect("broadcast");
        assert!(results[0].1.is_ok());
        assert!(results[1].1.is_err());
        // An unknown scope is a configuration error: nothing attempted.
        assert!(matches!(
            reg.reload(Some("ghost")),
            Err(RegistryError::Config(_))
        ));
        std::fs::remove_dir_all(&dir).ok();
    }
}
