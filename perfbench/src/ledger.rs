//! The determinism ledger.
//!
//! Values that must repeat exactly across runs with the same seed (step
//! counts, cosine cells, the bits of `hits1`, the hash of the served
//! answers) are recorded per key in a small tab-separated file inside the
//! checkout. A later run of the same build, workload and seed must
//! reproduce every recorded value; a mismatch fails that run.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::path::Path;

/// Checks `fields` against the values recorded under `key` in the ledger
/// at `path` and records the ones not seen before. Returns a description
/// of each mismatch.
pub fn check(path: &Path, key: &str, fields: &[(&str, String)]) -> io::Result<Vec<String>> {
    let mut known: BTreeMap<String, String> = BTreeMap::new();
    if let Ok(text) = std::fs::read_to_string(path) {
        for line in text.lines() {
            if let Some((k, v)) = line.split_once('\t') {
                known.insert(k.to_string(), v.to_string());
            }
        }
    }
    let mut mismatches = Vec::new();
    let mut fresh = String::new();
    for (name, value) in fields {
        let k = format!("{key}/{name}");
        match known.get(&k) {
            Some(prev) if prev != value => {
                mismatches.push(format!("{k}: recorded {prev}, this run {value}"));
            }
            Some(_) => {}
            None => fresh.push_str(&format!("{k}\t{value}\n")),
        }
    }
    if !fresh.is_empty() {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut f = std::fs::OpenOptions::new().create(true).append(true).open(path)?;
        f.write_all(fresh.as_bytes())?;
        f.sync_all()?;
    }
    Ok(mismatches)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn second_run_must_repeat_recorded_values() {
        let dir = std::env::temp_dir().join(format!("perfbench_ledger_{}", std::process::id()));
        let path = dir.join("ledger.tsv");
        let _ = std::fs::remove_dir_all(&dir);
        let a = [("steps", "21".to_string())];
        assert!(check(&path, "w/1", &a).expect("first write").is_empty());
        assert!(check(&path, "w/1", &a).expect("same values").is_empty());
        let b = [("steps", "22".to_string())];
        assert_eq!(check(&path, "w/1", &b).expect("read").len(), 1);
        assert!(check(&path, "w/2", &b).expect("other seed").is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
