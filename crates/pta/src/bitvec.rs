//! Word-indexed sparse bitmap blocks — the large-set representation behind
//! [`crate::pts::PtsSet`].
//!
//! A [`BitBlocks`] stores a set of `u32` ids as 64-bit words keyed by word
//! index (`id / 64`), with the word-index array kept sorted so iteration
//! yields ids in ascending order. Points-to sets in real constraint graphs
//! are clustered (objects of one allocation region get adjacent node ids),
//! so the word skeleton stays short while membership, union, difference,
//! and subset checks all become O(words) popcount/and-not loops instead of
//! O(elements) sorted-vec merges.
//!
//! All bulk operations report the number of 64-bit words they touched, so
//! the solver can expose propagation cost as a deterministic counter
//! (`SolveStats::union_words`) rather than only as wall-clock.

/// Sparse bitmap: sorted word indices + their 64-bit payloads.
#[derive(Debug, Default, PartialEq, Eq)]
pub struct BitBlocks {
    /// Word indices (`id / 64`), strictly ascending.
    idx: Vec<u32>,
    /// Bit payloads, parallel to `idx`. `remove` and `retain` may leave
    /// zero words behind; every operation tolerates them, and the bulk
    /// operations never create new ones.
    bits: Vec<u64>,
    /// Cached population count.
    count: u32,
}

impl Clone for BitBlocks {
    fn clone(&self) -> Self {
        BitBlocks {
            idx: self.idx.clone(),
            bits: self.bits.clone(),
            count: self.count,
        }
    }

    /// Reuse the destination's allocations (`Vec::clone_from`), so the
    /// solver's `prop.clone_from(&pts)` refresh is allocation-free once the
    /// vectors have warmed up.
    fn clone_from(&mut self, other: &Self) {
        self.idx.clone_from(&other.idx);
        self.bits.clone_from(&other.bits);
        self.count = other.count;
    }
}

/// Append every set bit of `word` (ascending) as `base + bit` to `out`.
#[inline]
fn push_bits(base: u32, mut word: u64, out: &mut Vec<u32>) {
    while word != 0 {
        let b = word.trailing_zeros();
        out.push(base + b);
        word &= word - 1;
    }
}

/// First position `p >= from` with `idx[p] >= w`, given that every index
/// before `from` is below `w`. Gallops, so a sparse probe into a long
/// skeleton costs O(log gap) rather than a linear walk.
#[inline]
fn seek(idx: &[u32], mut from: usize, w: u32) -> usize {
    let mut step = 1usize;
    while from + step < idx.len() && idx[from + step] < w {
        from += step;
        step *= 2;
    }
    let end = (from + step).min(idx.len());
    from + idx[from..end].partition_point(|&x| x < w)
}

impl BitBlocks {
    /// Word-level FNV-1a over the raw `(idx, bits)` representation: a cheap
    /// identity hash for interning bit-identical sets without iterating
    /// their members.
    pub fn repr_hash(&self, mut h: u64) -> u64 {
        const PRIME: u64 = 0x0000_0100_0000_01b3;
        for (&i, &b) in self.idx.iter().zip(&self.bits) {
            h = (h ^ i as u64).wrapping_mul(PRIME);
            h = (h ^ b).wrapping_mul(PRIME);
        }
        h
    }

    /// Raw representation equality — word-slice compares, cheaper than
    /// member iteration.
    pub fn repr_eq(&self, other: &BitBlocks) -> bool {
        self.count == other.count && self.idx == other.idx && self.bits == other.bits
    }

    /// Empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Build from a strictly ascending slice of ids, allocating exactly the
    /// words needed (a promoted set then grows from its true size).
    pub fn from_sorted_slice(items: &[u32]) -> Self {
        debug_assert!(items.windows(2).all(|w| w[0] < w[1]));
        let words = items.chunk_by(|a, b| a >> 6 == b >> 6).count();
        let mut s = BitBlocks {
            idx: Vec::with_capacity(words),
            bits: Vec::with_capacity(words),
            count: 0,
        };
        for &v in items {
            let w = v >> 6;
            let bit = 1u64 << (v & 63);
            match s.idx.last() {
                Some(&last) if last == w => *s.bits.last_mut().expect("parallel") |= bit,
                _ => {
                    s.idx.push(w);
                    s.bits.push(bit);
                }
            }
        }
        s.count = items.len() as u32;
        s
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.count as usize
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Number of 64-bit words in the skeleton.
    pub fn word_count(&self) -> usize {
        self.idx.len()
    }

    /// Heap bytes held by the skeleton (capacity, not length).
    pub fn heap_bytes(&self) -> usize {
        self.idx.capacity() * std::mem::size_of::<u32>()
            + self.bits.capacity() * std::mem::size_of::<u64>()
    }

    /// Membership test.
    pub fn contains(&self, v: u32) -> bool {
        match self.idx.binary_search(&(v >> 6)) {
            Ok(i) => self.bits[i] & (1u64 << (v & 63)) != 0,
            Err(_) => false,
        }
    }

    /// Insert; returns `true` if the id was new.
    pub fn insert(&mut self, v: u32) -> bool {
        let w = v >> 6;
        let bit = 1u64 << (v & 63);
        match self.idx.binary_search(&w) {
            Ok(i) => {
                if self.bits[i] & bit != 0 {
                    false
                } else {
                    self.bits[i] |= bit;
                    self.count += 1;
                    true
                }
            }
            Err(i) => {
                self.idx.insert(i, w);
                self.bits.insert(i, bit);
                self.count += 1;
                true
            }
        }
    }

    /// Remove; returns `true` if the id was present. Emptied words stay in
    /// the skeleton (harmless: all operations tolerate zero words).
    pub fn remove(&mut self, v: u32) -> bool {
        match self.idx.binary_search(&(v >> 6)) {
            Ok(i) => {
                let bit = 1u64 << (v & 63);
                if self.bits[i] & bit == 0 {
                    false
                } else {
                    self.bits[i] &= !bit;
                    self.count -= 1;
                    true
                }
            }
            Err(_) => false,
        }
    }

    /// Remove all elements, keeping allocations.
    pub fn clear(&mut self) {
        self.idx.clear();
        self.bits.clear();
        self.count = 0;
    }

    /// Union `other` into `self`, appending the newly added ids (ascending)
    /// to `added`. Returns the number of words touched.
    pub fn union_from(&mut self, other: &BitBlocks, added: &mut Vec<u32>) -> u64 {
        self.or_words(&other.idx, &other.bits, added)
    }

    /// Union a strictly ascending slice of ids into `self`, appending the
    /// newly added ids (ascending) to `added`. The ids are packed into
    /// words first, so this is the same word-level merge as
    /// [`BitBlocks::union_from`]. Returns the number of words touched.
    pub fn union_sorted(&mut self, items: &[u32], added: &mut Vec<u32>) -> u64 {
        debug_assert!(items.windows(2).all(|w| w[0] < w[1]));
        const CHUNK: usize = 64;
        let mut words = 0;
        for chunk in items.chunks(CHUNK) {
            let mut idx = [0u32; CHUNK];
            let mut bits = [0u64; CHUNK];
            let mut k = 0usize;
            for &v in chunk {
                let w = v >> 6;
                if k == 0 || idx[k - 1] != w {
                    idx[k] = w;
                    k += 1;
                }
                bits[k - 1] |= 1u64 << (v & 63);
            }
            words += self.or_words(&idx[..k], &bits[..k], added);
        }
        words
    }

    /// The shared word-level union. One forward pass ORs every source word
    /// whose index the skeleton already has and reports the new bits in
    /// ascending order; when some source words are missing from the
    /// skeleton, the vectors grow once (amortized) and a backward pass
    /// slides the existing words up to interleave the missing ones in
    /// place. Counts source words read plus destination words written by
    /// the backward pass.
    fn or_words(&mut self, oidx: &[u32], obits: &[u64], added: &mut Vec<u32>) -> u64 {
        let mut missing = 0usize;
        let mut i = 0usize;
        for (&w, &o) in oidx.iter().zip(obits) {
            if o == 0 {
                continue;
            }
            i = seek(&self.idx, i, w);
            let new = if i < self.idx.len() && self.idx[i] == w {
                let new = o & !self.bits[i];
                self.bits[i] |= new;
                new
            } else {
                missing += 1;
                o
            };
            if new != 0 {
                push_bits(w << 6, new, added);
                self.count += new.count_ones();
            }
        }
        let words = oidx.len() as u64;
        if missing == 0 {
            return words;
        }
        let old = self.idx.len();
        let len = old + missing;
        if self.idx.capacity() < len {
            // Grow by at least a quarter: still amortized O(1) per word,
            // but a set that stops growing holds at most 25% slack rather
            // than the up-to-2x of `Vec`'s doubling (`peak_pts_bytes`
            // counts capacity).
            let extra = missing.max(old / 4);
            self.idx.reserve_exact(extra);
            self.bits.reserve_exact(extra);
        }
        self.idx.resize(len, 0);
        self.bits.resize(len, 0);
        // `k - a` is the number of missing words still to place; once it
        // reaches zero the remaining prefix is already in position.
        let (mut a, mut b, mut k) = (old, oidx.len(), len);
        while k > a {
            let (w, o) = (oidx[b - 1], obits[b - 1]);
            if o == 0 {
                b -= 1;
                continue;
            }
            k -= 1;
            if a > 0 && self.idx[a - 1] >= w {
                if self.idx[a - 1] == w {
                    b -= 1; // already ORed by the forward pass
                }
                a -= 1;
                self.idx[k] = self.idx[a];
                self.bits[k] = self.bits[a];
            } else {
                self.idx[k] = w;
                self.bits[k] = o;
                b -= 1;
            }
        }
        words + (len - k) as u64
    }

    /// Set `out` to `self \ other` with word-level and-not, reusing
    /// `out`'s allocation. Emits no zero words. Returns words touched.
    pub fn diff_into(&self, other: &BitBlocks, out: &mut BitBlocks) -> u64 {
        out.clear();
        let mut j = 0usize;
        for (&w, &mine) in self.idx.iter().zip(&self.bits) {
            if mine == 0 {
                continue;
            }
            j = seek(&other.idx, j, w);
            let theirs = if j < other.idx.len() && other.idx[j] == w {
                other.bits[j]
            } else {
                0
            };
            out.push_word(w, mine & !theirs);
        }
        self.idx.len() as u64
    }

    /// Set `out` to `self` minus a strictly ascending slice of ids: a word
    /// copy with the slice's bits masked off, reusing `out`'s allocation.
    /// Emits no zero words. Returns words touched.
    pub fn diff_sorted_into(&self, other: &[u32], out: &mut BitBlocks) -> u64 {
        debug_assert!(other.windows(2).all(|w| w[0] < w[1]));
        out.clear();
        let mut j = 0usize;
        for (&w, &mine) in self.idx.iter().zip(&self.bits) {
            while j < other.len() && other[j] >> 6 < w {
                j += 1;
            }
            let mut theirs = 0u64;
            while j < other.len() && other[j] >> 6 == w {
                theirs |= 1u64 << (other[j] & 63);
                j += 1;
            }
            out.push_word(w, mine & !theirs);
        }
        self.idx.len() as u64
    }

    /// Append a word above every word already held; zero words are skipped.
    #[inline]
    fn push_word(&mut self, w: u32, bits: u64) {
        debug_assert!(self.idx.last().is_none_or(|&last| last < w));
        if bits != 0 {
            self.idx.push(w);
            self.bits.push(bits);
            self.count += bits.count_ones();
        }
    }

    /// Whether `self` and `other` share an element. Walks the shorter
    /// skeleton and gallops through the longer one.
    pub fn intersects(&self, other: &BitBlocks) -> bool {
        let (short, long) = if self.idx.len() <= other.idx.len() {
            (self, other)
        } else {
            (other, self)
        };
        let mut j = 0usize;
        for (&w, &bits) in short.idx.iter().zip(&short.bits) {
            if bits == 0 {
                continue;
            }
            j = seek(&long.idx, j, w);
            if j >= long.idx.len() {
                return false;
            }
            if long.idx[j] == w && long.bits[j] & bits != 0 {
                return true;
            }
        }
        false
    }

    /// Whether every element of `self` is in `other`.
    pub fn is_subset(&self, other: &BitBlocks) -> bool {
        if self.count > other.count {
            return false;
        }
        let mut b = 0usize;
        for (a, &w) in self.idx.iter().enumerate() {
            if self.bits[a] == 0 {
                continue;
            }
            while b < other.idx.len() && other.idx[b] < w {
                b += 1;
            }
            if b >= other.idx.len() || other.idx[b] != w {
                return false;
            }
            if self.bits[a] & !other.bits[b] != 0 {
                return false;
            }
        }
        true
    }

    /// Keep only elements matching `keep`; append removed ids to `removed`.
    pub fn retain(&mut self, mut keep: impl FnMut(u32) -> bool, removed: &mut Vec<u32>) {
        for (a, &w) in self.idx.iter().enumerate() {
            let mut word = self.bits[a];
            while word != 0 {
                let bit = word.trailing_zeros();
                word &= word - 1;
                let v = (w << 6) + bit;
                if !keep(v) {
                    self.bits[a] &= !(1u64 << bit);
                    self.count -= 1;
                    removed.push(v);
                }
            }
        }
    }

    /// Iterate over elements in ascending order.
    pub fn iter(&self) -> BlocksIter<'_> {
        BlocksIter {
            idx: &self.idx,
            bits: &self.bits,
            pos: 0,
            base: 0,
            word: 0,
        }
    }
}

/// Sorted-order iterator over a [`BitBlocks`].
pub struct BlocksIter<'a> {
    idx: &'a [u32],
    bits: &'a [u64],
    pos: usize,
    base: u32,
    word: u64,
}

impl Iterator for BlocksIter<'_> {
    type Item = u32;

    fn next(&mut self) -> Option<u32> {
        loop {
            if self.word != 0 {
                let b = self.word.trailing_zeros();
                self.word &= self.word - 1;
                return Some(self.base + b);
            }
            if self.pos >= self.idx.len() {
                return None;
            }
            self.base = self.idx[self.pos] << 6;
            self.word = self.bits[self.pos];
            self.pos += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_contains_remove() {
        let mut s = BitBlocks::new();
        assert!(s.insert(5));
        assert!(s.insert(64));
        assert!(s.insert(4096));
        assert!(!s.insert(5));
        assert_eq!(s.len(), 3);
        assert!(s.contains(64) && !s.contains(63));
        assert!(s.remove(64));
        assert!(!s.remove(64));
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![5, 4096]);
    }

    #[test]
    fn union_in_place_and_structural() {
        let mut a = BitBlocks::from_sorted_slice(&[1, 2, 70]);
        let b = BitBlocks::from_sorted_slice(&[2, 3, 71]);
        let mut added = Vec::new();
        a.union_from(&b, &mut added);
        assert_eq!(added, vec![3, 71]);
        assert_eq!(a.iter().collect::<Vec<_>>(), vec![1, 2, 3, 70, 71]);
        // Structural: new word far away.
        let c = BitBlocks::from_sorted_slice(&[1000]);
        added.clear();
        a.union_from(&c, &mut added);
        assert_eq!(added, vec![1000]);
        assert_eq!(a.len(), 6);
        // Idempotent.
        added.clear();
        a.union_from(&b, &mut added);
        assert!(added.is_empty());
    }

    #[test]
    fn diff_and_subset() {
        let a = BitBlocks::from_sorted_slice(&[1, 2, 3, 130]);
        let b = BitBlocks::from_sorted_slice(&[2, 130]);
        let mut out = BitBlocks::new();
        a.diff_into(&b, &mut out);
        assert_eq!(out.iter().collect::<Vec<_>>(), vec![1, 3]);
        assert_eq!(out.len(), 2);
        assert_eq!(out.word_count(), 1, "the emptied word 2 is not emitted");
        assert!(b.is_subset(&a));
        assert!(!a.is_subset(&b));
        b.diff_into(&a, &mut out);
        assert!(out.is_empty() && out.word_count() == 0);
        a.diff_sorted_into(&[2, 3, 130, 500], &mut out);
        assert_eq!(out.iter().collect::<Vec<_>>(), vec![1]);
        assert_eq!(out.word_count(), 1);
    }

    #[test]
    fn structural_union_interleaves_in_place() {
        let mut a = BitBlocks::from_sorted_slice(&[64, 200, 640]);
        let b = BitBlocks::from_sorted_slice(&[1, 65, 300, 641, 9000]);
        let mut added = Vec::new();
        let words = a.union_from(&b, &mut added);
        assert_eq!(added, vec![1, 65, 300, 641, 9000]);
        assert_eq!(
            a.iter().collect::<Vec<_>>(),
            vec![1, 64, 65, 200, 300, 640, 641, 9000]
        );
        assert_eq!(a.len(), 8);
        assert_eq!(a.word_count(), 6);
        assert!(words >= b.word_count() as u64);
        added.clear();
        a.union_sorted(&[0, 64, 10_000], &mut added);
        assert_eq!(added, vec![0, 10_000]);
        assert_eq!(a.len(), 10);
    }

    #[test]
    fn retain_removes_and_reports() {
        let mut s = BitBlocks::from_sorted_slice(&[1, 2, 3, 64, 65]);
        let mut removed = Vec::new();
        s.retain(|v| v % 2 == 0, &mut removed);
        assert_eq!(removed, vec![1, 3, 65]);
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![2, 64]);
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn subset_tolerates_zeroed_words() {
        let mut a = BitBlocks::from_sorted_slice(&[1, 64]);
        let b = BitBlocks::from_sorted_slice(&[1]);
        a.remove(64); // leaves an empty word in the skeleton
        assert!(a.is_subset(&b));
        assert!(b.is_subset(&a));
        assert_eq!(a.iter().collect::<Vec<_>>(), vec![1]);
        // A zero word in the source is neither reported nor inserted.
        let mut c = BitBlocks::from_sorted_slice(&[500]);
        let mut added = Vec::new();
        c.union_from(&a, &mut added);
        assert_eq!(added, vec![1]);
        assert_eq!(c.word_count(), 2);
        let mut out = BitBlocks::new();
        a.diff_into(&c, &mut out);
        assert!(out.is_empty() && out.word_count() == 0);
    }
}
