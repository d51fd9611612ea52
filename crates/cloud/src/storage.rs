//! S3-like remote object storage for checkpoints.
//!
//! The paper (§IV.F) measures checkpointing to be CPU-bound: the 16-vCPU
//! m4.4xlarge uploads at 134.22 MB/s while the 1-vCPU t2.micro reaches
//! 62.83 MB/s. Fitting a power law through those two points gives
//! `speed(v) = 62.83 · v^0.274` MB/s, which this module uses for all
//! transfer-time accounting. The maximum checkpointable model size is
//! `speed × 120 s`, the revocation-notice lead time.

use spottune_market::{InstanceType, SimDur};
use std::collections::BTreeMap;

/// Upload speed of the 1-vCPU reference instance, MB/s (measured: t2.micro).
pub const BASE_SPEED_MBPS: f64 = 62.83;
/// Exponent of the vCPU power law fitted through the paper's two measurements.
pub const SPEED_EXPONENT: f64 = 0.274;

/// Checkpoint upload/download speed for an instance type, in MB/s.
///
/// Memoized for common vCPU counts — `transfer_time` runs on every
/// checkpoint, restore, notice and recycle of every campaign, and `powf`
/// is the only expensive operation in it.
pub fn checkpoint_speed_mbps(instance: &InstanceType) -> f64 {
    use std::sync::OnceLock;
    static TABLE: OnceLock<[f64; 65]> = OnceLock::new();
    let v = instance.vcpus();
    if (v as usize) < 65 {
        let table = TABLE.get_or_init(|| {
            std::array::from_fn(|i| BASE_SPEED_MBPS * (i as f64).powf(SPEED_EXPONENT))
        });
        table[v as usize]
    } else {
        BASE_SPEED_MBPS * (v as f64).powf(SPEED_EXPONENT)
    }
}

/// Largest model checkpointable within the two-minute notice window, in MB.
pub fn max_model_size_mb(instance: &InstanceType) -> f64 {
    checkpoint_speed_mbps(instance) * 120.0
}

/// Transfer time for `size_mb` megabytes at the instance's speed.
///
/// Rounded up to whole simulation seconds (minimum one second for any
/// non-empty transfer).
pub fn transfer_time(instance: &InstanceType, size_mb: f64) -> SimDur {
    assert!(size_mb >= 0.0, "size must be non-negative");
    if size_mb == 0.0 {
        return SimDur::ZERO;
    }
    let secs = size_mb / checkpoint_speed_mbps(instance);
    SimDur::from_secs(secs.ceil().max(1.0) as u64)
}

/// A stored object's metadata.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ObjectMeta {
    /// Object size in MB.
    pub size_mb: f64,
    /// Number of times the object has been overwritten.
    pub versions: u64,
}

/// In-memory stand-in for the remote object store (AWS S3 in the paper).
///
/// Tracks object sizes and aggregate transfer statistics. The store itself is
/// passive: callers add the returned transfer times to their own clocks.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ObjectStore {
    objects: BTreeMap<String, ObjectMeta>,
    bytes_up_mb: f64,
    bytes_down_mb: f64,
    puts: u64,
    gets: u64,
}

impl ObjectStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        ObjectStore::default()
    }

    /// Uploads (or overwrites) an object from `instance`, returning the
    /// simulated transfer time.
    pub fn put(&mut self, key: &str, size_mb: f64, instance: &InstanceType) -> SimDur {
        // Overwrites (the common case: every job re-checkpoints the same
        // key on each notice/recycle) must not re-allocate the key.
        let meta = match self.objects.get_mut(key) {
            Some(meta) => meta,
            None => self
                .objects
                .entry(key.to_string())
                .or_insert(ObjectMeta { size_mb, versions: 0 }),
        };
        meta.size_mb = size_mb;
        meta.versions += 1;
        self.bytes_up_mb += size_mb;
        self.puts += 1;
        transfer_time(instance, size_mb)
    }

    /// Downloads an object to `instance`, returning its size and transfer
    /// time, or `None` if the key does not exist.
    pub fn get(&mut self, key: &str, instance: &InstanceType) -> Option<(f64, SimDur)> {
        let meta = *self.objects.get(key)?;
        self.bytes_down_mb += meta.size_mb;
        self.gets += 1;
        Some((meta.size_mb, transfer_time(instance, meta.size_mb)))
    }

    /// Whether an object exists.
    pub fn contains(&self, key: &str) -> bool {
        self.objects.contains_key(key)
    }

    /// Metadata for an object.
    pub fn meta(&self, key: &str) -> Option<ObjectMeta> {
        self.objects.get(key).copied()
    }

    /// Number of distinct objects stored.
    pub fn len(&self) -> usize {
        self.objects.len()
    }

    /// Whether the store holds no objects.
    pub fn is_empty(&self) -> bool {
        self.objects.is_empty()
    }

    /// Total megabytes uploaded over the store's lifetime.
    pub fn uploaded_mb(&self) -> f64 {
        self.bytes_up_mb
    }

    /// Total megabytes downloaded over the store's lifetime.
    pub fn downloaded_mb(&self) -> f64 {
        self.bytes_down_mb
    }

    /// Total `(put, get)` operation counts.
    pub fn op_counts(&self) -> (u64, u64) {
        (self.puts, self.gets)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spottune_market::instance;

    #[test]
    fn speed_matches_paper_measurements() {
        // m4.4xlarge (16 vCPU) should land on ~134.22 MB/s.
        let m4 = instance::by_name("m4.4xlarge").unwrap();
        let speed = checkpoint_speed_mbps(&m4);
        assert!((speed - 134.22).abs() < 2.0, "speed was {speed}");
        // Max model size ≈ 15.73 GB (paper: 15.73 GB).
        let max_gb = max_model_size_mb(&m4) / 1024.0;
        assert!((max_gb - 15.73).abs() < 0.3, "max size was {max_gb} GB");
        // 1-vCPU reference ≈ 7.36 GB.
        let micro = InstanceType::new("t2.micro", 1, 1.0, 0.0116);
        let max_gb = max_model_size_mb(&micro) / 1024.0;
        assert!((max_gb - 7.36).abs() < 0.1, "micro max size was {max_gb} GB");
    }

    #[test]
    fn faster_instances_upload_faster() {
        let small = instance::by_name("r4.large").unwrap();
        let big = instance::by_name("m4.4xlarge").unwrap();
        assert!(transfer_time(&big, 500.0) < transfer_time(&small, 500.0));
    }

    #[test]
    fn put_get_roundtrip() {
        let inst = instance::by_name("r4.large").unwrap();
        let mut store = ObjectStore::new();
        assert!(store.is_empty());
        let up = store.put("ckpt/hp1", 100.0, &inst);
        assert!(up.as_secs() >= 1);
        assert!(store.contains("ckpt/hp1"));
        let (size, down) = store.get("ckpt/hp1", &inst).unwrap();
        assert_eq!(size, 100.0);
        assert_eq!(up, down);
        assert_eq!(store.len(), 1);
        assert!(store.get("missing", &inst).is_none());
    }

    #[test]
    fn overwrite_bumps_version_and_traffic() {
        let inst = instance::by_name("r4.large").unwrap();
        let mut store = ObjectStore::new();
        store.put("k", 10.0, &inst);
        store.put("k", 20.0, &inst);
        let meta = store.meta("k").unwrap();
        assert_eq!(meta.versions, 2);
        assert_eq!(meta.size_mb, 20.0);
        assert_eq!(store.uploaded_mb(), 30.0);
        assert_eq!(store.op_counts(), (2, 0));
    }

    #[test]
    fn zero_size_transfer_is_instant() {
        let inst = instance::by_name("r4.large").unwrap();
        assert_eq!(transfer_time(&inst, 0.0), SimDur::ZERO);
    }
}
