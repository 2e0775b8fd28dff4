//! Compact binary (de)serialization for tensors and parameter stores, with
//! checksummed containers and crash-safe (atomic) file writes.
//!
//! ## Container format (v2, little-endian)
//!
//! Every file-level artifact is a *blob*: a 4-byte kind magic, a container
//! version, the payload length, a CRC-32 of the payload, then the payload.
//!
//! ```text
//! kind[4] | u32 container_version | u64 payload_len | u32 crc32 | payload
//! ```
//!
//! A parameter store is a blob of kind `SDT2` whose payload is:
//!
//! ```text
//! u32 n_params | for each param:
//!   u32 name_len | name bytes | u8 trainable | u32 rank | u32 dims... | f32 data...
//! ```
//!
//! Any mismatch — wrong magic, wrong version, wrong length, wrong
//! checksum, truncated body — fails with a clean `InvalidData` error, never
//! a panic and never silent wrong weights.
//!
//! ## Write discipline
//!
//! [`atomic_write`] never leaves a partial file at the destination path:
//! bytes go to `<path>.tmp`, the file is fsynced, then renamed over the
//! destination (and the parent directory fsynced, best-effort). A crash at
//! any instant leaves either the old file or the new file, plus at worst a
//! stale `.tmp`. [`atomic_write_retry`] adds bounded retry with exponential
//! backoff around transient IO errors. Both are instrumented with
//! `sdea_obs` counters (`store.writes`, `store.bytes_written`,
//! `store.retries`, `store.write_failures`) and carry [`crate::fault`]
//! injection sites (`<site>` before the write, `<site>.rename` before the
//! rename) so crash tests can kill or corrupt a write at a chosen point.

use crate::fault::{self, FaultAction};
use crate::optim::ParamStore;
use crate::tensor::Tensor;
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};

/// Blob kind of a serialized [`ParamStore`].
pub const STORE_KIND: &[u8; 4] = b"SDT2";
/// Current container version written by [`blob_to_bytes`].
pub const CONTAINER_VERSION: u32 = 2;
/// Fixed byte length of the blob header.
pub const BLOB_HEADER_LEN: usize = 4 + 4 + 8 + 4;

/// Little-endian append helpers over a byte buffer (covers the subset of
/// the `bytes` crate's `BufMut` the wire format needs; local so the build
/// has no registry dependencies). Public so higher layers (the checkpoint
/// manifest in `sdea-core`) can compose the same wire format.
pub trait WireWrite {
    /// Appends one byte.
    fn put_u8(&mut self, v: u8);
    /// Appends a little-endian `u32`.
    fn put_u32_le(&mut self, v: u32);
    /// Appends a little-endian `u64`.
    fn put_u64_le(&mut self, v: u64);
    /// Appends a little-endian `f32`.
    fn put_f32_le(&mut self, v: f32);
    /// Appends a little-endian `f64`.
    fn put_f64_le(&mut self, v: f64);
    /// Appends raw bytes.
    fn put_slice(&mut self, s: &[u8]);
}

impl WireWrite for Vec<u8> {
    fn put_u8(&mut self, v: u8) {
        self.push(v);
    }
    fn put_u32_le(&mut self, v: u32) {
        self.extend_from_slice(&v.to_le_bytes());
    }
    fn put_u64_le(&mut self, v: u64) {
        self.extend_from_slice(&v.to_le_bytes());
    }
    fn put_f32_le(&mut self, v: f32) {
        self.extend_from_slice(&v.to_le_bytes());
    }
    fn put_f64_le(&mut self, v: f64) {
        self.extend_from_slice(&v.to_le_bytes());
    }
    fn put_slice(&mut self, s: &[u8]) {
        self.extend_from_slice(s);
    }
}

/// Little-endian cursor helpers over a byte slice; callers bounds-check via
/// [`WireRead::remaining`] before each read (the getters panic on a short
/// slice — they are building blocks for checked parsers, not a parser).
pub trait WireRead {
    /// Bytes left in the cursor.
    fn remaining(&self) -> usize;
    /// Reads one byte.
    fn get_u8(&mut self) -> u8;
    /// Reads a little-endian `u32`.
    fn get_u32_le(&mut self) -> u32;
    /// Reads a little-endian `u64`.
    fn get_u64_le(&mut self) -> u64;
    /// Reads a little-endian `f32`.
    fn get_f32_le(&mut self) -> f32;
    /// Reads a little-endian `f64`.
    fn get_f64_le(&mut self) -> f64;
    /// Copies `dst.len()` bytes out of the cursor.
    fn copy_to_slice(&mut self, dst: &mut [u8]);
}

impl WireRead for &[u8] {
    fn remaining(&self) -> usize {
        self.len()
    }
    fn get_u8(&mut self) -> u8 {
        let v = self[0];
        *self = &self[1..];
        v
    }
    fn get_u32_le(&mut self) -> u32 {
        let v = u32::from_le_bytes(self[..4].try_into().expect("bounds checked"));
        *self = &self[4..];
        v
    }
    fn get_u64_le(&mut self) -> u64 {
        let v = u64::from_le_bytes(self[..8].try_into().expect("bounds checked"));
        *self = &self[8..];
        v
    }
    fn get_f32_le(&mut self) -> f32 {
        let v = f32::from_le_bytes(self[..4].try_into().expect("bounds checked"));
        *self = &self[4..];
        v
    }
    fn get_f64_le(&mut self) -> f64 {
        let v = f64::from_le_bytes(self[..8].try_into().expect("bounds checked"));
        *self = &self[8..];
        v
    }
    fn copy_to_slice(&mut self, dst: &mut [u8]) {
        dst.copy_from_slice(&self[..dst.len()]);
        *self = &self[dst.len()..];
    }
}

/// CRC-32 (IEEE 802.3, the zlib/PNG polynomial) of `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    static TABLE: std::sync::OnceLock<[u32; 256]> = std::sync::OnceLock::new();
    let table = TABLE.get_or_init(|| {
        let mut t = [0u32; 256];
        for (i, e) in t.iter_mut().enumerate() {
            let mut c = i as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            }
            *e = c;
        }
        t
    });
    let mut c = 0xFFFF_FFFFu32;
    for &b in bytes {
        c = table[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

/// Wraps `payload` in a versioned, checksummed blob container of `kind`.
pub fn blob_to_bytes(kind: &[u8; 4], payload: &[u8]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(BLOB_HEADER_LEN + payload.len());
    buf.put_slice(kind);
    buf.put_u32_le(CONTAINER_VERSION);
    buf.put_u64_le(payload.len() as u64);
    buf.put_u32_le(crc32(payload));
    buf.put_slice(payload);
    buf
}

/// Verifies a blob container's kind, version, length and checksum, and
/// returns the payload. Every failure is `InvalidData` with a message.
pub fn blob_payload<'a>(bytes: &'a [u8], kind: &[u8; 4]) -> io::Result<&'a [u8]> {
    let mut buf = bytes;
    if buf.remaining() < BLOB_HEADER_LEN {
        return Err(bad("truncated blob header"));
    }
    let mut magic = [0u8; 4];
    buf.copy_to_slice(&mut magic);
    if &magic != kind {
        return Err(bad(&format!(
            "bad magic {:?} (expected {:?})",
            String::from_utf8_lossy(&magic),
            String::from_utf8_lossy(kind)
        )));
    }
    let version = buf.get_u32_le();
    if version != CONTAINER_VERSION {
        return Err(bad(&format!(
            "unsupported container version {version} (expected {CONTAINER_VERSION})"
        )));
    }
    let len = buf.get_u64_le() as usize;
    let crc = buf.get_u32_le();
    if buf.remaining() != len {
        return Err(bad(&format!(
            "payload length mismatch: header says {len}, file has {}",
            buf.remaining()
        )));
    }
    if crc32(buf) != crc {
        return Err(bad("checksum mismatch (corrupt blob)"));
    }
    Ok(buf)
}

/// Serializes a single tensor to the wire format.
pub fn write_tensor(buf: &mut Vec<u8>, t: &Tensor) {
    buf.put_u32_le(t.shape().len() as u32);
    for &d in t.shape() {
        buf.put_u32_le(d as u32);
    }
    for &v in t.data() {
        buf.put_f32_le(v);
    }
}

/// Deserializes a single tensor from the wire format.
pub fn read_tensor(buf: &mut &[u8]) -> io::Result<Tensor> {
    if buf.remaining() < 4 {
        return Err(bad("truncated tensor rank"));
    }
    let rank = buf.get_u32_le() as usize;
    if rank > 8 {
        return Err(bad("implausible tensor rank"));
    }
    let mut shape = Vec::with_capacity(rank);
    for _ in 0..rank {
        if buf.remaining() < 4 {
            return Err(bad("truncated tensor shape"));
        }
        shape.push(buf.get_u32_le() as usize);
    }
    let n: usize = shape.iter().product();
    if buf.remaining() < n * 4 {
        return Err(bad("truncated tensor data"));
    }
    let mut data = Vec::with_capacity(n);
    for _ in 0..n {
        data.push(buf.get_f32_le());
    }
    Ok(Tensor::from_vec(data, &shape))
}

fn store_body_bytes(store: &ParamStore) -> Vec<u8> {
    let mut buf = Vec::with_capacity(16 + store.num_scalars() * 4);
    buf.put_u32_le(store.len() as u32);
    for id in store.ids() {
        let name = store.name(id).as_bytes();
        buf.put_u32_le(name.len() as u32);
        buf.put_slice(name);
        buf.put_u8(store.is_trainable(id) as u8);
        write_tensor(&mut buf, store.value(id));
    }
    buf
}

fn store_from_body(mut buf: &[u8]) -> io::Result<ParamStore> {
    if buf.remaining() < 4 {
        return Err(bad("truncated header"));
    }
    let n = buf.get_u32_le() as usize;
    let mut store = ParamStore::new();
    for _ in 0..n {
        if buf.remaining() < 4 {
            return Err(bad("truncated name length"));
        }
        let name_len = buf.get_u32_le() as usize;
        if buf.remaining() < name_len + 1 {
            return Err(bad("truncated name"));
        }
        let mut name_bytes = vec![0u8; name_len];
        buf.copy_to_slice(&mut name_bytes);
        let name = String::from_utf8(name_bytes).map_err(|_| bad("parameter name is not UTF-8"))?;
        let trainable = buf.get_u8() != 0;
        let tensor = read_tensor(&mut buf)?;
        let id = store.add(name, tensor);
        store.set_trainable(id, trainable);
    }
    Ok(store)
}

/// Serializes a full parameter store (v2 checksummed container).
pub fn store_to_bytes(store: &ParamStore) -> Vec<u8> {
    blob_to_bytes(STORE_KIND, &store_body_bytes(store))
}

/// Deserializes a parameter store produced by [`store_to_bytes`].
pub fn store_from_bytes(buf: &[u8]) -> io::Result<ParamStore> {
    store_from_body(blob_payload(buf, STORE_KIND)?)
}

/// Writes `bytes` to `path` atomically: `<path>.tmp` + fsync + rename +
/// parent-dir fsync. `site` names the [`crate::fault`] injection point.
pub fn atomic_write(path: impl AsRef<Path>, bytes: &[u8], site: &str) -> io::Result<()> {
    let path = path.as_ref();
    let corrupted;
    let bytes = match fault::hit(site) {
        FaultAction::Proceed => bytes,
        FaultAction::InjectError => return Err(fault::injected_error(site)),
        FaultAction::CorruptPayload => {
            // Silent media corruption: flip one mid-payload byte; the write
            // itself succeeds, only checksum verification can catch it.
            let mut c = bytes.to_vec();
            let i = c.len() / 2;
            c[i] ^= 0x40;
            corrupted = c;
            &corrupted[..]
        }
    };
    let tmp = tmp_path(path);
    {
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_all()?;
    }
    match fault::hit(&format!("{site}.rename")) {
        FaultAction::Proceed | FaultAction::CorruptPayload => {}
        FaultAction::InjectError => {
            let _ = std::fs::remove_file(&tmp);
            return Err(fault::injected_error(site));
        }
    }
    std::fs::rename(&tmp, path)?;
    // Persist the rename itself (directory entry), best effort: some
    // filesystems reject opening a directory for sync.
    if let Some(dir) = path.parent() {
        if !dir.as_os_str().is_empty() {
            if let Ok(d) = std::fs::File::open(dir) {
                let _ = d.sync_all();
            }
        }
    }
    sdea_obs::add("store.writes", 1);
    sdea_obs::add("store.bytes_written", bytes.len() as u64);
    Ok(())
}

/// Retry attempts of [`atomic_write_retry`] (total tries, not re-tries).
pub const WRITE_ATTEMPTS: u32 = 3;

/// [`atomic_write`] with bounded retry and exponential backoff (5 ms, then
/// 10 ms) around transient IO errors. Counts `store.retries` per retry and
/// `store.write_failures` when all attempts are exhausted.
pub fn atomic_write_retry(path: impl AsRef<Path>, bytes: &[u8], site: &str) -> io::Result<()> {
    let path = path.as_ref();
    let mut delay = std::time::Duration::from_millis(5);
    let mut attempt = 1;
    loop {
        match atomic_write(path, bytes, site) {
            Ok(()) => return Ok(()),
            Err(e) if attempt < WRITE_ATTEMPTS => {
                sdea_obs::add("store.retries", 1);
                eprintln!(
                    "checkpoint write to {} failed (attempt {attempt}/{WRITE_ATTEMPTS}): {e}; retrying",
                    path.display()
                );
                std::thread::sleep(delay);
                delay *= 2;
                attempt += 1;
            }
            Err(e) => {
                sdea_obs::add("store.write_failures", 1);
                return Err(e);
            }
        }
    }
}

/// The temp-file path used by [`atomic_write`] for `path`.
pub fn tmp_path(path: &Path) -> PathBuf {
    let mut name = path.file_name().map(|n| n.to_os_string()).unwrap_or_default();
    name.push(".tmp");
    path.with_file_name(name)
}

/// Writes a parameter store to disk atomically (checksummed v2 container,
/// temp-file + fsync + rename, bounded retry). Never leaves a partial file
/// at `path`.
pub fn save_store(store: &ParamStore, path: impl AsRef<Path>) -> io::Result<()> {
    let _span = sdea_obs::span("store.save");
    atomic_write_retry(path, &store_to_bytes(store), "ckpt.store")
}

/// Reads a parameter store from disk, verifying the container checksum.
pub fn load_store(path: impl AsRef<Path>) -> io::Result<ParamStore> {
    let _span = sdea_obs::span("store.load");
    let mut f = io::BufReader::new(std::fs::File::open(path)?);
    let mut bytes = Vec::new();
    f.read_to_end(&mut bytes)?;
    sdea_obs::add("store.loads", 1);
    store_from_bytes(&bytes)
}

fn bad(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultMode;
    use crate::rng::Rng;

    fn test_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("sdea_serialize_{tag}_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn tensor_round_trip() {
        let mut rng = Rng::seed_from_u64(1);
        let t = Tensor::rand_normal(&[3, 4, 2], 1.0, &mut rng);
        let mut buf = Vec::new();
        write_tensor(&mut buf, &t);
        let back = read_tensor(&mut &buf[..]).unwrap();
        assert_eq!(back, t);
    }

    #[test]
    fn store_round_trip_preserves_names_values_flags() {
        let mut rng = Rng::seed_from_u64(2);
        let mut store = ParamStore::new();
        let a = store.add("layer.weight", Tensor::rand_normal(&[4, 4], 1.0, &mut rng));
        let b = store.add_frozen("embeddings", Tensor::rand_normal(&[10, 4], 1.0, &mut rng));
        let bytes = store_to_bytes(&store);
        let back = store_from_bytes(&bytes).unwrap();
        assert_eq!(back.len(), 2);
        assert_eq!(back.name(a), "layer.weight");
        assert_eq!(back.name(b), "embeddings");
        assert_eq!(back.value(a), store.value(a));
        assert_eq!(back.value(b), store.value(b));
        assert!(back.is_trainable(a));
        assert!(!back.is_trainable(b));
    }

    #[test]
    fn corrupt_magic_is_rejected() {
        let mut store = ParamStore::new();
        store.add("w", Tensor::scalar(1.0));
        let mut bytes = store_to_bytes(&store);
        assert_eq!(&bytes[..4], STORE_KIND, "store header starts with the registered kind");
        bytes[0] = b'X';
        assert!(store_from_bytes(&bytes).is_err());
    }

    /// Single-byte corruption anywhere in the container must be caught at
    /// load with `InvalidData` — the checksum acceptance criterion.
    #[test]
    fn any_single_bit_flip_is_rejected() {
        let mut rng = Rng::seed_from_u64(3);
        let mut store = ParamStore::new();
        store.add("w", Tensor::rand_normal(&[4, 5], 1.0, &mut rng));
        store.add_frozen("b", Tensor::rand_normal(&[5], 1.0, &mut rng));
        let bytes = store_to_bytes(&store);
        for i in 0..bytes.len() {
            let mut c = bytes.clone();
            c[i] ^= 0x01;
            let err = match store_from_bytes(&c) {
                Ok(_) => panic!("flip at byte {i} loaded successfully"),
                Err(e) => e,
            };
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "flip at byte {i}");
        }
    }

    #[test]
    fn truncated_payload_is_rejected_not_panicking() {
        let mut store = ParamStore::new();
        store.add("w", Tensor::from_vec(vec![1.0, 2.0, 3.0], &[3]));
        let bytes = store_to_bytes(&store);
        for cut in [0, 4, 9, BLOB_HEADER_LEN, bytes.len() - 2] {
            assert!(store_from_bytes(&bytes[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn blob_round_trip_and_kind_check() {
        let payload = b"hello blob".to_vec();
        let bytes = blob_to_bytes(b"TEST", &payload);
        assert_eq!(blob_payload(&bytes, b"TEST").unwrap(), &payload[..]);
        assert!(blob_payload(&bytes, b"OTHR").is_err());
    }

    #[test]
    fn file_round_trip() {
        let mut rng = Rng::seed_from_u64(3);
        let mut store = ParamStore::new();
        store.add("w", Tensor::rand_normal(&[8, 8], 1.0, &mut rng));
        let dir = test_dir("file_rt");
        let path = dir.join("ckpt.sdt");
        save_store(&store, &path).unwrap();
        let back = load_store(&path).unwrap();
        assert_eq!(back.value(crate::optim::ParamId(0)), store.value(crate::optim::ParamId(0)));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// An injected write error on the first attempt is absorbed by the
    /// retry loop; the file still lands intact.
    #[test]
    fn transient_write_error_is_retried() {
        let dir = test_dir("retry");
        let path = dir.join("retry.sdt");
        let mut store = ParamStore::new();
        store.add("w", Tensor::scalar(4.0));
        crate::fault::arm("test.retry.site", 1, FaultMode::Error);
        atomic_write_retry(&path, &store_to_bytes(&store), "test.retry.site").unwrap();
        assert_eq!(load_store(&path).unwrap().value(crate::optim::ParamId(0)).item(), 4.0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A persistent error exhausts the bounded retries and surfaces.
    #[test]
    fn persistent_write_error_surfaces_after_bounded_retries() {
        let dir = test_dir("exhaust");
        let path = dir.join("never.sdt");
        for nth in 1..=WRITE_ATTEMPTS as u64 {
            crate::fault::arm("test.exhaust.site", nth, FaultMode::Error);
        }
        let err = atomic_write_retry(&path, b"payload", "test.exhaust.site").unwrap_err();
        assert!(err.to_string().contains("injected fault"), "{err}");
        assert!(!path.exists(), "failed write must not leave a file");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// An injected rename failure must leave the previous file untouched —
    /// the atomicity guarantee the old `File::create` writer lacked.
    #[test]
    fn failed_write_preserves_previous_file() {
        let dir = test_dir("atomic");
        let path = dir.join("model.sdt");
        let mut store = ParamStore::new();
        store.add("w", Tensor::scalar(1.0));
        save_store(&store, &path).unwrap();

        let mut store2 = ParamStore::new();
        store2.add("w", Tensor::scalar(2.0));
        for nth in 1..=WRITE_ATTEMPTS as u64 {
            crate::fault::arm("test.atomic.site.rename", nth, FaultMode::Error);
        }
        let err = atomic_write_retry(&path, &store_to_bytes(&store2), "test.atomic.site");
        assert!(err.is_err());
        // Old contents intact and loadable; no temp litter.
        let back = load_store(&path).unwrap();
        assert_eq!(back.value(crate::optim::ParamId(0)).item(), 1.0);
        assert!(!tmp_path(&path).exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A corrupt-mode fault lets the write "succeed" but the checksum
    /// rejects the file at load.
    #[test]
    fn corrupting_fault_is_caught_at_load() {
        let dir = test_dir("corrupt");
        let path = dir.join("bad.sdt");
        let mut store = ParamStore::new();
        store.add("w", Tensor::rand_normal(&[6, 6], 1.0, &mut Rng::seed_from_u64(5)));
        crate::fault::arm("test.corrupt.site", 1, FaultMode::Corrupt);
        atomic_write_retry(&path, &store_to_bytes(&store), "test.corrupt.site").unwrap();
        let err = load_store(&path).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn crc32_known_vectors() {
        // Standard IEEE test vector.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }
}
