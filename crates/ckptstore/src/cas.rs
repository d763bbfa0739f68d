//! Refcounted content-addressed chunk store: the dedup substrate behind
//! `SPBCCKP4` checkpoints.
//!
//! Chunks cut by [`crate::cdc`] are keyed by their SHA-256 digest and stored
//! once per unique content, no matter how many jobs, epochs, or ranks
//! reference them. References are tracked through a *registration ledger*:
//! each committed manifest registers under a `(job, holder, owner, epoch)`
//! key the ordered list of chunk hashes it references, and every occurrence
//! in a registered manifest holds one reference. A chunk's bytes live
//! exactly as long as some registered manifest references them.
//!
//! The store is **sharded** for multi-tenant throughput: chunk bodies live
//! in power-of-two hash-indexed shards behind `RwLock`s (lookups are
//! shared-read), and the registration ledger is sharded by `(job, holder,
//! owner)` — every epoch of one rank's history lands on one ledger shard,
//! so that rank's GC scans exactly one map and concurrent jobs never touch
//! each other's ledger locks. Each ledger shard keeps a per-rank GC cursor
//! (the highest `unregister_below` bound seen) so repeated GC sweeps skip
//! the scan entirely when there is provably nothing left below the bound.
//!
//! Three structural decisions carry the correctness story:
//!
//! * **References are taken before anything can observe them missing.** A
//!   committing rank increfs (or inserts) every chunk of its manifest
//!   *first*, so from that point each chunk carries references owned by the
//!   in-flight commit itself; only then is the registration swapped in (one
//!   ledger-shard critical section). A concurrent GC can decref other
//!   registrations, but can never take a chunk below the commit's own refs
//!   — the cas-gc chaos family holds because the refs protect the chunks,
//!   not because one global lock serializes everything.
//! * **Re-registration replaces.** Committing the same `(job, holder,
//!   owner, epoch)` key again (a restarted rank re-walking its waves)
//!   increfs the new manifest first and only then decrefs the old one, so
//!   shared chunks never transit through refcount zero.
//! * **Failed commits roll back.** Bytes reach the incref walk only as
//!   [`HashedChunk`]s, already hashed or verified against their claimed
//!   address, so a hash mismatch is rejected before the store is touched.
//!   The walk itself byte-compares every hash hit and requires stored
//!   content for every bytes-less address; on a failure every reference
//!   the walk took is released (removing chunks it inserted), leaving the
//!   store as it was.
//!
//! The ledger — not blob parsing — drives GC, because the async writer may
//! coalesce away a blob that was never durably stored while its chunks are
//! still referenced by the in-memory manifest of a later epoch.
//!
//! SHA-256 (FIPS 180-4) is written here because this workspace vendors no
//! cryptographic dependency. The CPU picks the compressor at run time: on
//! x86_64 with the SHA extensions (plus SSSE3 and SSE4.1) every whole block
//! runs on `sha256rnds2`/`sha256msg1`/`sha256msg2`, elsewhere on the portable
//! compressor, which also serves as the test reference. The invariant the
//! commit paths keep: every chunk enters the store after exactly one SHA-256
//! over those bytes, and every hash hit is byte-confirmed against the stored
//! content, so even a collision cannot silently substitute chunk bodies.

use std::collections::HashMap;
use std::fmt;
use std::sync::{Mutex, RwLock};

// ---------------------------------------------------------------------------
// SHA-256 (FIPS 180-4)
// ---------------------------------------------------------------------------

const SHA256_K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

/// Initial hash value H(0) (FIPS 180-4 §5.3.3).
const SHA256_IV: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// Portable compression of one 64-byte block: the fallback on CPUs without
/// SHA instructions and the reference the hardware path is tested against.
fn sha256_compress(state: &mut [u32; 8], block: &[u8]) {
    debug_assert_eq!(block.len(), 64);
    let mut w = [0u32; 64];
    for (i, word) in w.iter_mut().take(16).enumerate() {
        *word = u32::from_be_bytes([
            block[4 * i],
            block[4 * i + 1],
            block[4 * i + 2],
            block[4 * i + 3],
        ]);
    }
    for i in 16..64 {
        let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
        let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
        w[i] = w[i - 16].wrapping_add(s0).wrapping_add(w[i - 7]).wrapping_add(s1);
    }
    let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
    for i in 0..64 {
        let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
        let ch = (e & f) ^ (!e & g);
        let t1 = h.wrapping_add(s1).wrapping_add(ch).wrapping_add(SHA256_K[i]).wrapping_add(w[i]);
        let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
        let maj = (a & b) ^ (a & c) ^ (b & c);
        let t2 = s0.wrapping_add(maj);
        h = g;
        g = f;
        f = e;
        e = d.wrapping_add(t1);
        d = c;
        c = b;
        b = a;
        a = t1.wrapping_add(t2);
    }
    state[0] = state[0].wrapping_add(a);
    state[1] = state[1].wrapping_add(b);
    state[2] = state[2].wrapping_add(c);
    state[3] = state[3].wrapping_add(d);
    state[4] = state[4].wrapping_add(e);
    state[5] = state[5].wrapping_add(f);
    state[6] = state[6].wrapping_add(g);
    state[7] = state[7].wrapping_add(h);
}

/// Compress every whole 64-byte block of `blocks` into `state` with the
/// portable compressor.
fn compress_blocks_portable(state: &mut [u32; 8], blocks: &[u8]) {
    for block in blocks.chunks_exact(64) {
        sha256_compress(state, block);
    }
}

/// Compress every whole 64-byte block of `blocks` into `state`, on the
/// CPU's SHA-256 instructions when it has them.
fn compress_blocks(state: &mut [u32; 8], blocks: &[u8]) {
    #[cfg(target_arch = "x86_64")]
    if shani::detected() {
        // SAFETY: `shani::detected` just confirmed that the CPU supports
        // every feature `shani::compress_blocks` is compiled for.
        unsafe { shani::compress_blocks(state, blocks) };
        return;
    }
    compress_blocks_portable(state, blocks);
}

/// SHA-256 digest of `data`.
pub fn sha256(data: &[u8]) -> [u8; 32] {
    sha256_with(data, compress_blocks)
}

/// SHA-256 of `data` with `compress` applied to the whole message blocks
/// and then to the padded tail.
fn sha256_with(data: &[u8], mut compress: impl FnMut(&mut [u32; 8], &[u8])) -> [u8; 32] {
    let mut state = SHA256_IV;
    let whole = data.len() - data.len() % 64;
    compress(&mut state, &data[..whole]);
    // Padding: 0x80, zeros, then the bit length as a big-endian u64.
    let rem = &data[whole..];
    let mut tail = [0u8; 128];
    tail[..rem.len()].copy_from_slice(rem);
    tail[rem.len()] = 0x80;
    let tail_len = if rem.len() < 56 { 64 } else { 128 };
    let bit_len = (data.len() as u64).wrapping_mul(8);
    tail[tail_len - 8..tail_len].copy_from_slice(&bit_len.to_be_bytes());
    compress(&mut state, &tail[..tail_len]);
    let mut out = [0u8; 32];
    for (i, word) in state.iter().enumerate() {
        out[4 * i..4 * i + 4].copy_from_slice(&word.to_be_bytes());
    }
    out
}

/// SHA-256 block compression on the x86 SHA extensions.
#[cfg(target_arch = "x86_64")]
mod shani {
    use super::SHA256_K;
    use std::arch::x86_64::*;

    /// Whether this CPU has every extension [`compress_blocks`] is compiled
    /// for (SSE2 is part of the x86_64 baseline). The macro caches its
    /// probe, so repeat calls cost a load and a branch.
    pub(super) fn detected() -> bool {
        is_x86_feature_detected!("sha")
            && is_x86_feature_detected!("ssse3")
            && is_x86_feature_detected!("sse4.1")
    }

    /// Compress every whole 64-byte block of `blocks` into `state`.
    ///
    /// Calling it is `unsafe` unless the caller is compiled for the same
    /// features: the CPU must support them, which [`detected`] checks.
    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    pub(super) fn compress_blocks(state: &mut [u32; 8], blocks: &[u8]) {
        // Byte-swaps each 32-bit lane: message words are big-endian.
        let bswap = _mm_set_epi64x(0x0c0d_0e0f_0809_0a0b, 0x0405_0607_0001_0203);
        // SAFETY: `state` is 32 bytes, so the unaligned 16-byte loads at
        // offsets 0 and 16 stay in bounds.
        let (dcba, hgfe) = unsafe {
            let p = state.as_ptr().cast::<__m128i>();
            (_mm_loadu_si128(p), _mm_loadu_si128(p.add(1)))
        };
        // `sha256rnds2` keeps the state as the register pair ABEF / CDGH.
        let cdab = _mm_shuffle_epi32::<0xB1>(dcba);
        let efgh = _mm_shuffle_epi32::<0x1B>(hgfe);
        let mut abef = _mm_alignr_epi8::<8>(cdab, efgh);
        let mut cdgh = _mm_blend_epi16::<0xF0>(efgh, cdab);
        for block in blocks.chunks_exact(64) {
            let p = block.as_ptr().cast::<__m128i>();
            // SAFETY: `block` is exactly 64 bytes, so the four unaligned
            // 16-byte loads stay in bounds.
            let [mut w0, mut w1, mut w2, mut w3] = unsafe {
                [
                    _mm_shuffle_epi8(_mm_loadu_si128(p), bswap),
                    _mm_shuffle_epi8(_mm_loadu_si128(p.add(1)), bswap),
                    _mm_shuffle_epi8(_mm_loadu_si128(p.add(2)), bswap),
                    _mm_shuffle_epi8(_mm_loadu_si128(p.add(3)), bswap),
                ]
            };
            let (abef0, cdgh0) = (abef, cdgh);
            // Sixteen groups of four rounds. `w0..w3` hold the last sixteen
            // message words, oldest group first; from group 4 on, the
            // oldest is replaced by the next four scheduled words.
            for i in 0..16 {
                if i >= 4 {
                    w0 = schedule(w0, w1, w2, w3);
                }
                let k = &SHA256_K[4 * i..4 * i + 4];
                let wk = _mm_add_epi32(
                    w0,
                    _mm_set_epi32(k[3] as i32, k[2] as i32, k[1] as i32, k[0] as i32),
                );
                cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
                abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32::<0x0E>(wk));
                (w0, w1, w2, w3) = (w1, w2, w3, w0);
            }
            abef = _mm_add_epi32(abef, abef0);
            cdgh = _mm_add_epi32(cdgh, cdgh0);
        }
        let feba = _mm_shuffle_epi32::<0x1B>(abef);
        let dchg = _mm_shuffle_epi32::<0xB1>(cdgh);
        let dcba = _mm_blend_epi16::<0xF0>(feba, dchg);
        let hgfe = _mm_alignr_epi8::<8>(dchg, feba);
        // SAFETY: as for the loads above, both 16-byte stores fall inside
        // the 32 bytes of `state`.
        unsafe {
            let p = state.as_mut_ptr().cast::<__m128i>();
            _mm_storeu_si128(p, dcba);
            _mm_storeu_si128(p.add(1), hgfe);
        }
    }

    /// Message schedule: the next four words from the previous sixteen.
    #[inline]
    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    fn schedule(w0: __m128i, w1: __m128i, w2: __m128i, w3: __m128i) -> __m128i {
        let t = _mm_add_epi32(_mm_sha256msg1_epu32(w0, w1), _mm_alignr_epi8::<4>(w3, w2));
        _mm_sha256msg2_epu32(t, w3)
    }
}

// ---------------------------------------------------------------------------
// Chunk hashes
// ---------------------------------------------------------------------------

/// Strong content address of a chunk: its SHA-256 digest.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ChunkHash(pub [u8; 32]);

impl ChunkHash {
    /// Hash chunk bytes into their content address.
    pub fn of(bytes: &[u8]) -> Self {
        ChunkHash(sha256(bytes))
    }
}

/// Chunk bytes paired with their content address. The only constructors
/// hash the bytes or verify them against a claimed address, so a holder
/// knows the pair matches without hashing again: the store's commit walk
/// takes these and never re-hashes.
#[derive(Clone, Copy, Debug)]
pub struct HashedChunk<'a> {
    hash: ChunkHash,
    bytes: &'a [u8],
}

impl<'a> HashedChunk<'a> {
    /// Hash `bytes` into their content address.
    pub fn of(bytes: &'a [u8]) -> Self {
        HashedChunk { hash: ChunkHash::of(bytes), bytes }
    }

    /// Accept `bytes` (read from the wire or from storage) only if they
    /// hash to `claimed`.
    pub fn verify(claimed: ChunkHash, bytes: &'a [u8]) -> Option<Self> {
        let chunk = Self::of(bytes);
        (chunk.hash == claimed).then_some(chunk)
    }

    /// The content address.
    pub fn hash(&self) -> ChunkHash {
        self.hash
    }

    /// The chunk bytes.
    pub fn bytes(&self) -> &'a [u8] {
        self.bytes
    }
}

/// One manifest occurrence in a commit: bytes in hand, or an address the
/// store must already hold.
#[derive(Clone, Copy, Debug)]
pub(crate) enum ChunkRef<'a> {
    /// Hashed or verified bytes: inserted if new, byte-compared on a hit.
    Body(HashedChunk<'a>),
    /// Address only (a partner adopting content it was not sent).
    Adopt(ChunkHash),
}

impl ChunkRef<'_> {
    /// The content address this occurrence references.
    fn hash(&self) -> ChunkHash {
        match self {
            ChunkRef::Body(c) => c.hash(),
            ChunkRef::Adopt(h) => *h,
        }
    }
}

impl fmt::Debug for ChunkHash {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ChunkHash(")?;
        for b in &self.0[..6] {
            write!(f, "{b:02x}")?;
        }
        write!(f, "…)")
    }
}

// ---------------------------------------------------------------------------
// The store
// ---------------------------------------------------------------------------

/// What happened to one manifest chunk during [`CasStore::commit_insert`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ChunkFate {
    /// First time the store has seen this content — bytes were stored.
    New,
    /// Content already stored, first inserted by the same owner rank
    /// (cross-epoch dedup).
    HitSameOwner,
    /// Content already stored, first inserted by a different rank
    /// (cross-rank dedup — SPBC's SPMD observation paying out).
    HitCrossRank,
}

/// Per-commit accounting returned by [`CasStore::commit_insert`].
#[derive(Clone, Debug, Default)]
pub struct CommitStats {
    /// Fate of each manifest chunk, in manifest order.
    pub fates: Vec<ChunkFate>,
    /// Bytes of manifest chunks already held by the store.
    pub hit_bytes: u64,
    /// Bytes newly stored by this commit.
    pub new_bytes: u64,
    /// Hit count against content first stored by the same owner.
    pub hits_same_owner: u64,
    /// Hit count against content first stored by another rank.
    pub hits_cross_rank: u64,
}

struct Entry {
    bytes: Vec<u8>,
    refs: u64,
    /// `(job, rank)` that first stored this content — two tenants' rank 0
    /// are different ranks for dedup-fate accounting.
    first_owner: (u32, u32),
}

type RegKey = (u32, u32, u32, u64); // (job, holder, owner, epoch)

/// One registration-ledger shard: every epoch of a given `(job, holder,
/// owner)` lands here, so a rank's GC scans exactly one map.
#[derive(Default)]
struct RegShard {
    regs: HashMap<RegKey, Vec<ChunkHash>>,
    /// Highest `unregister_below` bound applied per `(job, holder, owner)`:
    /// nothing with a smaller epoch is still registered, so a GC sweep at
    /// or below the cursor skips the scan. A commit below the cursor (a
    /// restarted rank re-walking old waves) lowers it again.
    cursors: HashMap<(u32, u32, u32), u64>,
}

/// Default shard count for both the chunk map and the registration ledger.
pub const DEFAULT_CAS_SHARDS: usize = 8;

/// Service-wide refcounted content-addressed chunk store.
///
/// One instance is shared by every rank of every job on a
/// [`crate::CkptStoreService`] hub (the in-memory hot tier, same durability
/// class as partner copies), so identical chunks dedup across epochs,
/// across ranks, *and* across tenant jobs.
pub struct CasStore {
    chunk_shards: Vec<RwLock<HashMap<ChunkHash, Entry>>>,
    reg_shards: Vec<Mutex<RegShard>>,
    mask: usize,
}

impl Default for CasStore {
    fn default() -> Self {
        Self::new()
    }
}

impl CasStore {
    /// New empty store with the default shard count.
    pub fn new() -> Self {
        Self::with_shards(DEFAULT_CAS_SHARDS)
    }

    /// New empty store with `shards` shards (rounded up to a power of two).
    pub fn with_shards(shards: usize) -> Self {
        let n = shards.max(1).next_power_of_two();
        CasStore {
            chunk_shards: (0..n).map(|_| RwLock::new(HashMap::new())).collect(),
            reg_shards: (0..n).map(|_| Mutex::new(RegShard::default())).collect(),
            mask: n - 1,
        }
    }

    /// How many shards this store was built with (for tests and reporting).
    pub fn shards(&self) -> usize {
        self.mask + 1
    }

    /// Chunk shard index: the digest is already uniform, so its leading
    /// bytes are the index.
    fn chunk_shard(&self, hash: &ChunkHash) -> &RwLock<HashMap<ChunkHash, Entry>> {
        let k = u64::from_le_bytes(hash.0[..8].try_into().expect("digest has 8 leading bytes"));
        &self.chunk_shards[k as usize & self.mask]
    }

    /// Ledger shard index for `(job, holder, owner)` (multiply-shift hash).
    fn reg_shard(&self, job: u32, holder: u32, owner: u32) -> &Mutex<RegShard> {
        let k = ((job as u64) << 40) ^ ((holder as u64) << 20) ^ owner as u64;
        let idx = (k.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 33) as usize & self.mask;
        &self.reg_shards[idx]
    }

    /// Release one reference to `hash`; returns whether the chunk's last
    /// reference went away (bytes freed).
    fn decref(&self, hash: &ChunkHash) -> bool {
        let mut shard = self.chunk_shard(hash).write().unwrap();
        if let Some(e) = shard.get_mut(hash) {
            e.refs -= 1;
            if e.refs == 0 {
                shard.remove(hash);
                return true;
            }
        }
        false
    }

    /// Incref/insert one manifest occurrence, byte-confirming a hash hit.
    /// Returns the chunk's fate and byte count, or an error message.
    fn take_ref(
        &self,
        index: usize,
        chunk: ChunkRef<'_>,
        owner_key: (u32, u32),
    ) -> Result<(ChunkFate, u64), String> {
        let hash = chunk.hash();
        let mut shard = self.chunk_shard(&hash).write().unwrap();
        if let Some(e) = shard.get_mut(&hash) {
            if let ChunkRef::Body(c) = chunk {
                if c.bytes() != e.bytes.as_slice() {
                    return Err(format!(
                        "cas: chunk {index} content mismatch on hash hit {hash:?} \
                         (corruption or hash collision)"
                    ));
                }
            }
            e.refs += 1;
            let len = e.bytes.len() as u64;
            let fate = if e.first_owner == owner_key {
                ChunkFate::HitSameOwner
            } else {
                ChunkFate::HitCrossRank
            };
            Ok((fate, len))
        } else {
            let ChunkRef::Body(c) = chunk else {
                return Err(format!(
                    "cas: chunk {index} {hash:?} has no bytes and is not in the store"
                ));
            };
            let bytes = c.bytes().to_vec();
            let len = bytes.len() as u64;
            shard.insert(hash, Entry { bytes, refs: 1, first_owner: owner_key });
            Ok((ChunkFate::New, len))
        }
    }

    /// Insert a manifest's chunks and register the reference list under
    /// `(job, holder, owner, epoch)`. Each element pairs a chunk hash with
    /// its bytes (`Some` when the caller has them) or `None` (a partner
    /// adopting a manifest whose body the store must already hold,
    /// possibly via an earlier `Some` in this same list).
    ///
    /// Every `Some` is verified against its hash before the store is
    /// touched; the verified list then takes the same incref walk as the
    /// service's own commits.
    ///
    /// Errors (store left in its prior state): bytes that do not hash to
    /// their claimed address, plus every error of `commit_chunks`.
    pub fn commit_insert(
        &self,
        job: u32,
        holder: u32,
        owner: u32,
        epoch: u64,
        manifest: &[(ChunkHash, Option<&[u8]>)],
    ) -> Result<CommitStats, String> {
        let chunks = manifest
            .iter()
            .enumerate()
            .map(|(i, (hash, bytes))| match bytes {
                None => Ok(ChunkRef::Adopt(*hash)),
                Some(b) => HashedChunk::verify(*hash, b).map(ChunkRef::Body).ok_or_else(|| {
                    format!("cas: chunk {i} bytes do not match their claimed hash {hash:?}")
                }),
            })
            .collect::<Result<Vec<_>, String>>()?;
        self.commit_chunks(job, holder, owner, epoch, chunks)
    }

    /// Insert already-hashed chunks and register the reference list under
    /// `(job, holder, owner, epoch)`. Every reference is taken *before* the
    /// registration swap, so the chunks are pinned (refs ≥ 1, owned by this
    /// in-flight commit) throughout — a concurrent GC can never free them
    /// in the window between insert and register. Re-registering an
    /// existing key replaces it: new references are taken before old ones
    /// are released, so shared chunks never transit refcount zero.
    ///
    /// Errors (store rolled back to its prior state): an address with no
    /// bytes that the store does not hold, or bytes that differ from the
    /// stored content on a hash hit (corruption or hash collision).
    pub(crate) fn commit_chunks<'a>(
        &self,
        job: u32,
        holder: u32,
        owner: u32,
        epoch: u64,
        chunks: impl IntoIterator<Item = ChunkRef<'a>>,
    ) -> Result<CommitStats, String> {
        let owner_key = (job, owner);
        let mut stats = CommitStats::default();
        let chunks = chunks.into_iter();
        let mut hashes = Vec::with_capacity(chunks.size_hint().0);
        for (i, chunk) in chunks.enumerate() {
            match self.take_ref(i, chunk, owner_key) {
                Ok((fate, len)) => {
                    match fate {
                        ChunkFate::New => stats.new_bytes += len,
                        ChunkFate::HitSameOwner => {
                            stats.hit_bytes += len;
                            stats.hits_same_owner += 1;
                        }
                        ChunkFate::HitCrossRank => {
                            stats.hit_bytes += len;
                            stats.hits_cross_rank += 1;
                        }
                    }
                    stats.fates.push(fate);
                    hashes.push(chunk.hash());
                }
                Err(e) => {
                    // Roll back every reference this walk took (removing
                    // chunks it inserted), leaving the store untouched.
                    for h in &hashes {
                        self.decref(h);
                    }
                    return Err(e);
                }
            }
        }
        let old = {
            let mut reg = self.reg_shard(job, holder, owner).lock().unwrap();
            // A commit below the GC cursor re-opens that range for GC.
            if let Some(cur) = reg.cursors.get_mut(&(job, holder, owner)) {
                *cur = (*cur).min(epoch);
            }
            reg.regs.insert((job, holder, owner, epoch), hashes)
        };
        if let Some(old_hashes) = old {
            for h in &old_hashes {
                self.decref(h);
            }
        }
        Ok(stats)
    }

    /// Drop one registration and release its references. Returns whether
    /// the key existed.
    pub fn unregister(&self, job: u32, holder: u32, owner: u32, epoch: u64) -> bool {
        let removed = {
            let mut reg = self.reg_shard(job, holder, owner).lock().unwrap();
            reg.regs.remove(&(job, holder, owner, epoch))
        };
        match removed {
            None => false,
            Some(hashes) => {
                for h in &hashes {
                    self.decref(h);
                }
                true
            }
        }
    }

    /// GC: drop every `(job, holder, owner, *)` registration with epoch
    /// below `epoch_lt`. Returns `(registrations dropped, chunks freed)` —
    /// a chunk is freed only when its *last* reference anywhere goes away.
    /// The per-rank cursor makes a repeat sweep at or below a previous
    /// bound O(1): there is provably nothing left to scan for.
    pub fn unregister_below(
        &self,
        job: u32,
        holder: u32,
        owner: u32,
        epoch_lt: u64,
    ) -> (usize, usize) {
        let doomed: Vec<Vec<ChunkHash>> = {
            let mut reg = self.reg_shard(job, holder, owner).lock().unwrap();
            let cursor = reg.cursors.get(&(job, holder, owner)).copied().unwrap_or(0);
            if epoch_lt <= cursor {
                return (0, 0);
            }
            reg.cursors.insert((job, holder, owner), epoch_lt);
            let keys: Vec<RegKey> = reg
                .regs
                .keys()
                .filter(|(j, h, o, e)| *j == job && *h == holder && *o == owner && *e < epoch_lt)
                .copied()
                .collect();
            keys.iter().map(|k| reg.regs.remove(k).expect("key just listed")).collect()
        };
        let mut freed = 0;
        for hashes in &doomed {
            for h in hashes {
                if self.decref(h) {
                    freed += 1;
                }
            }
        }
        (doomed.len(), freed)
    }

    /// Bytes of a stored chunk, if present (a shared-read lookup).
    pub fn get(&self, hash: &ChunkHash) -> Option<Vec<u8>> {
        self.chunk_shard(hash).read().unwrap().get(hash).map(|e| e.bytes.clone())
    }

    /// Whether the store currently holds content for `hash`.
    pub fn contains(&self, hash: &ChunkHash) -> bool {
        self.chunk_shard(hash).read().unwrap().contains_key(hash)
    }

    /// Indices into `hashes` whose content the store does not hold — the
    /// set a replication partner would request via `CKPT_CHUNK_REQ`.
    pub fn missing(&self, hashes: &[ChunkHash]) -> Vec<u32> {
        hashes
            .iter()
            .enumerate()
            .filter(|(_, h)| !self.contains(h))
            .map(|(i, _)| i as u32)
            .collect()
    }

    /// Number of unique chunks currently stored.
    pub fn unique_chunks(&self) -> usize {
        self.chunk_shards.iter().map(|s| s.read().unwrap().len()).sum()
    }

    /// Total bytes of unique content currently stored.
    pub fn unique_bytes(&self) -> u64 {
        self.chunk_shards
            .iter()
            .map(|s| s.read().unwrap().values().map(|e| e.bytes.len() as u64).sum::<u64>())
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn hex(digest: &[u8; 32]) -> String {
        digest.iter().map(|b| format!("{b:02x}")).collect()
    }

    #[test]
    fn sha256_matches_fips_vectors() {
        assert_eq!(
            hex(&sha256(b"")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
        assert_eq!(
            hex(&sha256(b"abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
        assert_eq!(
            hex(&sha256(b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
        assert_eq!(
            hex(&sha256(&vec![b'a'; 1_000_000])),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        );
    }

    /// Deterministic test bytes (splitmix64).
    fn seeded_bytes(seed: u64, len: usize) -> Vec<u8> {
        let mut state = seed;
        (0..len)
            .map(|_| {
                state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
                let mut z = state;
                z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
                (z ^ (z >> 31)) as u8
            })
            .collect()
    }

    /// Digest on the SHA extensions, or `None` when the CPU lacks them.
    fn hardware_sha256(data: &[u8]) -> Option<[u8; 32]> {
        #[cfg(target_arch = "x86_64")]
        if shani::detected() {
            // SAFETY: `shani::detected` confirmed the CPU supports every
            // feature `shani::compress_blocks` is compiled for.
            return Some(sha256_with(data, |s, b| unsafe { shani::compress_blocks(s, b) }));
        }
        let _ = data;
        None
    }

    /// The hardware and portable compressors agree on every length across
    /// the padding and multi-block boundaries and on large buffers, and the
    /// dispatching `sha256` matches both.
    #[test]
    fn hardware_and_portable_sha256_agree() {
        let inputs = (0..=320usize)
            .map(|len| seeded_bytes(len as u64, len))
            .chain((1..=3u64).map(|seed| seeded_bytes(seed << 32, 1 << 20)));
        let mut hardware_checked = 0;
        for data in inputs {
            let portable = sha256_with(&data, compress_blocks_portable);
            assert_eq!(sha256(&data), portable, "dispatch, {} bytes", data.len());
            if let Some(hw) = hardware_sha256(&data) {
                assert_eq!(hex(&hw), hex(&portable), "hardware vs portable, {} bytes", data.len());
                hardware_checked += 1;
            }
        }
        if hardware_checked == 0 {
            eprintln!("note: CPU lacks the SHA extensions; hardware SHA-256 not exercised");
        }
    }

    fn m(pairs: &[&[u8]]) -> Vec<(ChunkHash, Option<Vec<u8>>)> {
        pairs.iter().map(|b| (ChunkHash::of(b), Some(b.to_vec()))).collect()
    }

    fn commit(cas: &CasStore, holder: u32, owner: u32, epoch: u64, pairs: &[&[u8]]) -> CommitStats {
        commit_job(cas, 0, holder, owner, epoch, pairs)
    }

    fn commit_job(
        cas: &CasStore,
        job: u32,
        holder: u32,
        owner: u32,
        epoch: u64,
        pairs: &[&[u8]],
    ) -> CommitStats {
        let owned = m(pairs);
        let view: Vec<(ChunkHash, Option<&[u8]>)> =
            owned.iter().map(|(h, b)| (*h, b.as_deref())).collect();
        cas.commit_insert(job, holder, owner, epoch, &view).unwrap()
    }

    #[test]
    fn dedup_across_epochs_and_ranks() {
        let cas = CasStore::new();
        let s = commit(&cas, 0, 0, 1, &[b"alpha", b"beta"]);
        assert_eq!(s.fates, vec![ChunkFate::New, ChunkFate::New]);
        // Same owner, next epoch: cross-epoch hits.
        let s = commit(&cas, 0, 0, 2, &[b"alpha", b"gamma"]);
        assert_eq!(s.fates, vec![ChunkFate::HitSameOwner, ChunkFate::New]);
        // Different rank, same content: cross-rank hit.
        let s = commit(&cas, 1, 1, 1, &[b"alpha"]);
        assert_eq!(s.fates, vec![ChunkFate::HitCrossRank]);
        assert_eq!(s.hits_cross_rank, 1);
        assert_eq!(cas.unique_chunks(), 3);
        assert_eq!(cas.unique_bytes(), 5 + 4 + 5);
    }

    #[test]
    fn unregister_frees_only_last_reference() {
        let cas = CasStore::new();
        commit(&cas, 0, 0, 1, &[b"shared", b"only-e1"]);
        commit(&cas, 0, 0, 2, &[b"shared", b"only-e2"]);
        let (dropped, freed) = cas.unregister_below(0, 0, 0, 2);
        assert_eq!((dropped, freed), (1, 1), "e1 dropped; `shared` survives via e2");
        assert!(cas.contains(&ChunkHash::of(b"shared")));
        assert!(!cas.contains(&ChunkHash::of(b"only-e1")));
        assert!(cas.unregister(0, 0, 0, 2));
        assert_eq!(cas.unique_chunks(), 0);
    }

    #[test]
    fn reregistration_replaces_without_refcount_dip() {
        let cas = CasStore::new();
        commit(&cas, 0, 0, 1, &[b"keep", b"old"]);
        // Re-commit the same epoch (restarted rank): `keep` is shared
        // between old and new manifests and must survive the swap.
        commit(&cas, 0, 0, 1, &[b"keep", b"new"]);
        assert!(cas.contains(&ChunkHash::of(b"keep")));
        assert!(!cas.contains(&ChunkHash::of(b"old")), "replaced manifest's refs released");
        assert!(cas.contains(&ChunkHash::of(b"new")));
        cas.unregister(0, 0, 0, 1);
        assert_eq!(cas.unique_chunks(), 0);
    }

    #[test]
    fn duplicate_hash_within_one_manifest() {
        let cas = CasStore::new();
        let s = commit(&cas, 0, 0, 1, &[b"twin", b"twin"]);
        assert_eq!(s.fates, vec![ChunkFate::New, ChunkFate::HitSameOwner]);
        // One unregister of the (single) registration releases both refs.
        cas.unregister(0, 0, 0, 1);
        assert_eq!(cas.unique_chunks(), 0);
    }

    #[test]
    fn adopting_without_bytes_requires_presence() {
        let cas = CasStore::new();
        let h = ChunkHash::of(b"body");
        let err = cas.commit_insert(0, 1, 0, 1, &[(h, None)]).unwrap_err();
        assert!(err.contains("not in the store"), "{err}");
        // Inline earlier in the same manifest satisfies a later None.
        let body: &[u8] = b"body";
        cas.commit_insert(0, 1, 0, 1, &[(h, Some(body)), (h, None)]).unwrap();
        assert!(cas.contains(&h));
    }

    #[test]
    fn corrupt_bytes_are_rejected_atomically() {
        let cas = CasStore::new();
        let good: &[u8] = b"good";
        let wrong: &[u8] = b"evil";
        let err = cas
            .commit_insert(
                0,
                0,
                0,
                1,
                &[(ChunkHash::of(good), Some(good)), (ChunkHash::of(good), Some(wrong))],
            )
            .unwrap_err();
        assert!(err.contains("do not match"), "{err}");
        assert_eq!(cas.unique_chunks(), 0, "failed commit must not mutate the store");
    }

    #[test]
    fn missing_reports_unknown_indices() {
        let cas = CasStore::new();
        commit(&cas, 0, 0, 1, &[b"here"]);
        let hashes = [ChunkHash::of(b"here"), ChunkHash::of(b"absent"), ChunkHash::of(b"gone")];
        assert_eq!(cas.missing(&hashes), vec![1, 2]);
    }

    /// The cas-gc race, distilled: one thread commits manifests that share
    /// content with another owner while that owner's GC prunes. Because
    /// insert+register is one critical section, the shared chunk must be
    /// retrievable after every commit.
    #[test]
    fn concurrent_commit_and_gc_never_drop_referenced_chunks() {
        let cas = Arc::new(CasStore::new());
        let shared: Vec<u8> = vec![7u8; 512];
        let committer = {
            let cas = Arc::clone(&cas);
            let shared = shared.clone();
            std::thread::spawn(move || {
                for epoch in 1..200u64 {
                    let unique = epoch.to_le_bytes().to_vec();
                    let manifest = [
                        (ChunkHash::of(&shared), Some(shared.as_slice())),
                        (ChunkHash::of(&unique), Some(unique.as_slice())),
                    ];
                    cas.commit_insert(0, 0, 0, epoch, &manifest).unwrap();
                    assert!(
                        cas.get(&ChunkHash::of(&shared)).is_some(),
                        "registered chunk vanished at epoch {epoch}"
                    );
                    cas.unregister_below(0, 0, 0, epoch);
                }
            })
        };
        let gcer = {
            let cas = Arc::clone(&cas);
            let shared = shared.clone();
            std::thread::spawn(move || {
                for epoch in 1..200u64 {
                    let manifest = [(ChunkHash::of(&shared), Some(shared.as_slice()))];
                    cas.commit_insert(0, 1, 1, epoch, &manifest).unwrap();
                    cas.unregister_below(0, 1, 1, epoch);
                    assert!(cas.get(&ChunkHash::of(&shared)).is_some());
                }
                cas.unregister_below(0, 1, 1, u64::MAX);
            })
        };
        committer.join().unwrap();
        gcer.join().unwrap();
        // Rank 0's final epoch registration is still live.
        assert!(cas.contains(&ChunkHash::of(&shared)));
        cas.unregister_below(0, 0, 0, u64::MAX);
        assert_eq!(cas.unique_chunks(), 0, "all refs released leaves an empty store");
    }

    /// Two tenant jobs share content bodies (dedup is cross-job) but have
    /// fully isolated registration ledgers: one job's GC never releases the
    /// other job's references, even for the same (holder, owner, epoch).
    #[test]
    fn cross_job_content_shares_but_registrations_isolate() {
        let cas = CasStore::new();
        let a = commit_job(&cas, 0, 0, 0, 1, &[b"common"]);
        assert_eq!(a.fates, vec![ChunkFate::New]);
        // Job 1's rank 0 is a *different* owner: its hit is cross-rank.
        let b = commit_job(&cas, 1, 0, 0, 1, &[b"common"]);
        assert_eq!(b.fates, vec![ChunkFate::HitCrossRank]);
        assert_eq!(cas.unique_chunks(), 1, "content stored once across jobs");
        // Job 1 GCs everything; job 0's reference keeps the bytes alive.
        let (dropped, freed) = cas.unregister_below(1, 0, 0, u64::MAX);
        assert_eq!((dropped, freed), (1, 0));
        assert!(cas.contains(&ChunkHash::of(b"common")));
        // Job 0's GC releases the last reference.
        let (dropped, freed) = cas.unregister_below(0, 0, 0, u64::MAX);
        assert_eq!((dropped, freed), (1, 1));
        assert_eq!(cas.unique_chunks(), 0);
    }

    /// The per-rank GC cursor short-circuits redundant sweeps, and a commit
    /// below the cursor (restarted rank) re-opens the range for GC.
    #[test]
    fn gc_cursor_skips_redundant_sweeps_until_a_lower_commit() {
        let cas = CasStore::new();
        for e in 1..=3u64 {
            commit(&cas, 0, 0, e, &[e.to_le_bytes().as_slice()]);
        }
        assert_eq!(cas.unregister_below(0, 0, 0, 3).0, 2);
        // Nothing below 3 remains: the cursor makes this sweep free.
        assert_eq!(cas.unregister_below(0, 0, 0, 3), (0, 0));
        assert_eq!(cas.unregister_below(0, 0, 0, 2), (0, 0));
        // A restarted rank re-commits epoch 1; GC below 3 must see it.
        commit(&cas, 0, 0, 1, &[b"reborn"]);
        let (dropped, freed) = cas.unregister_below(0, 0, 0, 3);
        assert_eq!((dropped, freed), (1, 1));
        // Epoch 3's registration is untouched throughout.
        assert!(cas.unregister(0, 0, 0, 3));
    }
}
