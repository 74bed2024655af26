//! Workspace smoke test: proves the `taser::prelude` facade re-exports
//! compile and link end-to-end by building a tiny synthetic dataset and
//! driving one training epoch plus an evaluation through it. Kept small
//! enough to run in seconds even in debug builds — this is the "is the
//! workspace wired together at all" canary, not an accuracy test.

use taser::prelude::*;

#[test]
fn facade_builds_dataset_and_runs_one_trainer_step() {
    let ds: TemporalDataset = SynthConfig::wikipedia()
        .scale(0.005)
        .feat_dims(0, 8)
        .seed(42)
        .build();
    assert!(ds.num_events() > 0, "synthetic dataset is empty");

    let mut trainer = Trainer::new(
        TrainerConfig {
            backbone: Backbone::GraphMixer,
            variant: Variant::Taser,
            epochs: 1,
            batch_size: 64,
            hidden: 8,
            time_dim: 4,
            sampler_dim: 4,
            n_neighbors: 3,
            finder_budget: 6,
            eval_events: Some(12),
            eval_chunk: 4,
            ..TrainerConfig::default()
        },
        &ds,
    );
    let report = trainer.fit(&ds);

    assert_eq!(report.epochs.len(), 1, "expected exactly one epoch report");
    assert!(report.epochs[0].loss.is_finite(), "loss is not finite");
    assert!(
        (0.0..=1.0).contains(&report.test_mrr),
        "test MRR {} outside [0, 1]",
        report.test_mrr
    );

    // Exercise a couple more facade re-exports end-to-end: the T-CSR index
    // behind the dataset and the MRR helper behind the report.
    let csr = ds.tcsr();
    let last = ds.log.get(ds.num_events() - 1);
    assert!(csr
        .temporal_neighbors(last.src, last.t)
        .all(|n| n.t < last.t));
    assert!(mrr(&[1]) == 1.0);
}

/// Every `--bin <name>` a reader can copy from the docs or CI names a
/// binary the workspace still builds, so deleting a harness without
/// updating its recipes fails here rather than in a reader's shell.
#[test]
fn docs_name_only_existing_bins() {
    use std::collections::BTreeSet;
    use std::path::Path;

    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    // The `[workspace] members` globs, plus the root package.
    let mut manifests = vec![root.to_path_buf()];
    for group in ["crates", "vendor"] {
        for entry in std::fs::read_dir(root.join(group)).unwrap() {
            manifests.push(entry.unwrap().path());
        }
    }
    let mut bins = BTreeSet::new();
    for dir in &manifests {
        let Ok(toml) = std::fs::read_to_string(dir.join("Cargo.toml")) else {
            continue;
        };
        // Explicit `[[bin]]` targets: the first `name = "..."` after each.
        for section in toml.split("[[bin]]").skip(1) {
            let name = section
                .lines()
                .find_map(|l| l.trim().strip_prefix("name = "))
                .expect("[[bin]] without a name");
            bins.insert(name.trim_matches('"').to_string());
        }
        // Targets cargo discovers on its own under `src/bin/`.
        if let Ok(entries) = std::fs::read_dir(dir.join("src/bin")) {
            for entry in entries {
                let path = entry.unwrap().path();
                if path.extension().is_some_and(|e| e == "rs") {
                    bins.insert(path.file_stem().unwrap().to_string_lossy().into_owned());
                }
            }
        }
    }

    let mut missing = Vec::new();
    for doc in [
        "README.md",
        "EXPERIMENTS.md",
        ".claude/skills/verify/SKILL.md",
        ".github/workflows/ci.yml",
    ] {
        let text = std::fs::read_to_string(root.join(doc)).unwrap();
        for (at, _) in text.match_indices("--bin") {
            let rest = &text[at + "--bin".len()..];
            if !rest.starts_with(char::is_whitespace) {
                continue; // `--bins`, `--bin=...`
            }
            let name: String = rest
                .trim_start()
                .chars()
                .take_while(|c| c.is_ascii_alphanumeric() || *c == '_' || *c == '-')
                .collect();
            if !name.is_empty() && !bins.contains(&name) {
                missing.push(format!("{doc}: --bin {name}"));
            }
        }
    }
    assert!(
        missing.is_empty(),
        "docs name binaries no workspace manifest builds: {missing:?} (known: {bins:?})"
    );
}
