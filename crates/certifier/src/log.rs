//! The persistent commit log, kept as one flat item arena.

use std::ops::Range;

use tashkent_engine::{items_intersect, Version, WritesetItem};

/// The certifier's persistent log (§4.1): the items of every committed
/// writeset, in commit order, in one flat arena.
///
/// Host memory keeps only the entries above a base version: the cluster
/// [`trims`](CommitLog::trim) the prefix no reader can still ask for, so
/// the arena stops growing with simulated time. Retained entry `i` has
/// version `base + i + 1` and owns `items[ends[i - 1]..ends[i]]` (from 0 for
/// the first entry). Nothing after commit reads a writeset's transaction,
/// type or snapshot, so only its sorted items are kept: 8 B per item plus
/// 4 B per entry. Versions, views and [`CommitLog::head`] are absolute, so a
/// trim changes no answer the log gives above its base; asking for history
/// below it is a bug and panics.
///
/// # Examples
///
/// ```
/// use tashkent_certifier::CommitLog;
/// use tashkent_engine::{Version, WritesetItem};
/// use tashkent_storage::RelationId;
///
/// let item = |row| WritesetItem::new(RelationId(0), row);
/// let mut log = CommitLog::default();
/// assert_eq!(log.append(&[item(1), item(2)]), Version(1));
/// assert_eq!(log.append(&[item(3)]), Version(2));
///
/// // A snapshot taken before version 2 conflicts on its row...
/// assert!(log.conflicts(Version(1), &[item(3)]));
/// // ...one taken after it does not.
/// assert!(!log.conflicts(Version(2), &[item(3)]));
///
/// // Dropping version 1 leaves every later answer as it was.
/// log.trim(Version(1));
/// assert_eq!((log.base(), log.head()), (Version(1), Version(2)));
/// let tail: Vec<_> = log.since(Version(1)).iter().collect();
/// assert_eq!(tail, vec![(Version(2), &[item(3)][..])]);
/// ```
#[derive(Debug, Clone, Default)]
pub struct CommitLog {
    /// Versions up to this one are trimmed.
    base: Version,
    items: Vec<WritesetItem>,
    /// One past each retained entry's last item in `items`.
    ends: Vec<u32>,
}

impl CommitLog {
    /// Latest committed version (the log head).
    pub fn head(&self) -> Version {
        Version(self.base.0 + self.ends.len() as u64)
    }

    /// The last trimmed version: [`CommitLog::since`] answers from here on.
    pub fn base(&self) -> Version {
        self.base
    }

    /// Appends one committed writeset's sorted items; returns its version.
    pub fn append(&mut self, items: &[WritesetItem]) -> Version {
        self.items.extend_from_slice(items);
        let end = u32::try_from(self.items.len()).expect("commit log item offsets fit u32");
        self.ends.push(end);
        self.head()
    }

    /// Drops the entries with versions up to `floor` (clamped to the head)
    /// from host memory, moving the retained suffix to the front of the
    /// arena. A floor at or below the base is a no-op.
    pub fn trim(&mut self, floor: Version) {
        let drop = floor.0.min(self.head().0).saturating_sub(self.base.0) as usize;
        if drop == 0 {
            return;
        }
        let cut = self.ends[drop - 1];
        self.items.drain(..cut as usize);
        self.ends.drain(..drop);
        for end in &mut self.ends {
            *end -= cut;
        }
        self.base = Version(self.base.0 + drop as u64);
    }

    /// The entries with versions in `(after, head]`: what a replica at
    /// version `after` must apply to catch up.
    ///
    /// # Panics
    ///
    /// Panics if `after` is below [`CommitLog::base`]: that history was
    /// trimmed.
    pub fn since(&self, after: Version) -> LogView<'_> {
        assert!(
            after >= self.base,
            "commit log read after {after}, below its base {}",
            self.base
        );
        let hi = self.ends.len();
        LogView {
            log: self,
            lo: ((after.0 - self.base.0) as usize).min(hi),
            hi,
        }
    }

    /// GSI's write-write conflict check (§4.1): whether any entry committed
    /// after `snapshot` writes one of `items` (sorted).
    ///
    /// # Panics
    ///
    /// Panics if `snapshot` is below [`CommitLog::base`].
    pub fn conflicts(&self, snapshot: Version, items: &[WritesetItem]) -> bool {
        self.since(snapshot)
            .iter()
            .any(|(_, entry)| items_intersect(entry, items))
    }

    fn entry(&self, i: usize) -> &[WritesetItem] {
        let start = i.checked_sub(1).map_or(0, |p| self.ends[p] as usize);
        &self.items[start..self.ends[i] as usize]
    }
}

/// A borrowed, contiguous range of [`CommitLog`] entries, yielding
/// `(version, items)` in version order.
#[derive(Debug, Clone, Copy)]
pub struct LogView<'a> {
    log: &'a CommitLog,
    /// Retained-entry indices `[lo, hi)`.
    lo: usize,
    hi: usize,
}

impl<'a> LogView<'a> {
    /// Number of entries in the view.
    pub fn len(&self) -> usize {
        self.hi - self.lo
    }

    /// Whether the view holds no entries.
    pub fn is_empty(&self) -> bool {
        self.lo == self.hi
    }

    /// Entry `i` of the view, with its absolute version.
    ///
    /// # Panics
    ///
    /// Panics if `i` is not below [`LogView::len`].
    pub fn get(&self, i: usize) -> (Version, &'a [WritesetItem]) {
        assert!(i < self.len(), "log view index {i} out of {}", self.len());
        let at = self.lo + i;
        (Version(self.log.base.0 + at as u64 + 1), self.log.entry(at))
    }

    /// The entries at view indices `range`.
    ///
    /// # Panics
    ///
    /// Panics if `range` is decreasing or ends past [`LogView::len`].
    pub fn slice(self, range: Range<usize>) -> Self {
        assert!(
            range.start <= range.end && range.end <= self.len(),
            "log view range {range:?} out of {}",
            self.len()
        );
        LogView {
            lo: self.lo + range.start,
            hi: self.lo + range.end,
            ..self
        }
    }

    /// The entries with versions below `version`.
    pub fn before(self, version: Version) -> Self {
        let below = version.0.saturating_sub(1).saturating_sub(self.log.base.0);
        let hi = (below.min(self.hi as u64) as usize).max(self.lo);
        LogView { hi, ..self }
    }

    /// Iterates `(version, items)` in version order.
    pub fn iter(&self) -> Entries<'a> {
        let start = self
            .lo
            .checked_sub(1)
            .map_or(0, |p| self.log.ends[p] as usize);
        Entries {
            items: &self.log.items,
            ends: &self.log.ends[self.lo..self.hi],
            start,
            version: self.log.base.0 + self.lo as u64,
        }
    }
}

impl<'a> IntoIterator for LogView<'a> {
    type Item = (Version, &'a [WritesetItem]);
    type IntoIter = Entries<'a>;

    fn into_iter(self) -> Entries<'a> {
        self.iter()
    }
}

/// Iterator over a [`LogView`]'s entries.
#[derive(Debug, Clone)]
pub struct Entries<'a> {
    items: &'a [WritesetItem],
    /// End offsets of the entries still to yield.
    ends: &'a [u32],
    /// First item of the next entry.
    start: usize,
    /// Version of the entry yielded last.
    version: u64,
}

impl<'a> Iterator for Entries<'a> {
    type Item = (Version, &'a [WritesetItem]);

    fn next(&mut self) -> Option<Self::Item> {
        let (&end, rest) = self.ends.split_first()?;
        let entry = &self.items[self.start..end as usize];
        self.ends = rest;
        self.start = end as usize;
        self.version += 1;
        Some((Version(self.version), entry))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.ends.len(), Some(self.ends.len()))
    }
}

impl ExactSizeIterator for Entries<'_> {}

#[cfg(test)]
mod tests {
    use super::*;
    use tashkent_storage::RelationId;

    fn items(rows: &[u64]) -> Vec<WritesetItem> {
        rows.iter()
            .map(|&row| WritesetItem::new(RelationId(0), row))
            .collect()
    }

    fn log_of(entries: &[&[u64]]) -> CommitLog {
        let mut log = CommitLog::default();
        for rows in entries {
            log.append(&items(rows));
        }
        log
    }

    fn rows(view: LogView<'_>) -> Vec<(u64, Vec<u64>)> {
        view.iter()
            .map(|(v, items)| (v.0, items.iter().map(|i| i.row()).collect()))
            .collect()
    }

    #[test]
    fn views_yield_versions_and_items_in_order() {
        let log = log_of(&[&[1, 2], &[3], &[4, 5, 6]]);
        assert_eq!(log.head(), Version(3));
        assert_eq!(
            rows(log.since(Version(0))),
            vec![(1, vec![1, 2]), (2, vec![3]), (3, vec![4, 5, 6])]
        );
        assert_eq!(rows(log.since(Version(2))), vec![(3, vec![4, 5, 6])]);
        assert!(log.since(Version(3)).is_empty());
        assert!(log.since(Version(99)).is_empty());
    }

    #[test]
    fn sub_ranges_keep_their_versions() {
        let log = log_of(&[&[1], &[2], &[3], &[4]]);
        let all = log.since(Version(0));
        assert_eq!(rows(all.slice(1..3)), vec![(2, vec![2]), (3, vec![3])]);
        assert_eq!(all.slice(1..3).get(1), all.get(2));
        assert_eq!(
            rows(all.before(Version(3))),
            vec![(1, vec![1]), (2, vec![2])]
        );
        assert_eq!(
            rows(log.since(Version(1)).before(Version(3))),
            vec![(2, vec![2])]
        );
        assert!(log.since(Version(2)).before(Version(2)).is_empty());
        assert!(all.before(Version(0)).is_empty());
        assert_eq!(all.before(Version(99)).len(), 4);
        assert_eq!(all.slice(2..4).iter().len(), 2);
    }

    #[test]
    #[should_panic(expected = "out of")]
    fn slicing_past_the_view_panics() {
        let log = log_of(&[&[1], &[2]]);
        log.since(Version(1)).slice(0..2);
    }

    #[test]
    fn views_after_a_trim_yield_absolute_versions() {
        let mut log = log_of(&[&[1, 2], &[3], &[4, 5, 6], &[7]]);
        log.trim(Version(2));
        assert_eq!((log.base(), log.head()), (Version(2), Version(4)));
        assert_eq!(
            rows(log.since(Version(2))),
            vec![(3, vec![4, 5, 6]), (4, vec![7])]
        );
        let tail = log.since(Version(2));
        assert_eq!(tail.get(1), (Version(4), &items(&[7])[..]));
        assert_eq!(rows(tail.before(Version(4))), vec![(3, vec![4, 5, 6])]);
        assert!(tail.before(Version(2)).is_empty());
        assert_eq!(rows(tail.slice(1..2)), vec![(4, vec![7])]);
        assert!(log.conflicts(Version(2), &items(&[7])));
        assert!(!log.conflicts(Version(4), &items(&[7])));
        // Appends keep counting from the head.
        assert_eq!(log.append(&items(&[8])), Version(5));
        assert_eq!(rows(log.since(Version(4))), vec![(5, vec![8])]);
    }

    #[test]
    #[should_panic(expected = "below its base")]
    fn reading_below_the_base_panics() {
        let mut log = log_of(&[&[1], &[2], &[3]]);
        log.trim(Version(2));
        log.since(Version(1));
    }

    #[test]
    fn trimming_past_the_head_or_twice_is_harmless() {
        let mut log = log_of(&[&[1], &[2, 3], &[4]]);
        log.trim(Version(1));
        log.trim(Version(1));
        log.trim(Version(0));
        assert_eq!(log.base(), Version(1));
        assert_eq!(
            rows(log.since(Version(1))),
            vec![(2, vec![2, 3]), (3, vec![4])]
        );
        log.trim(Version(99));
        assert_eq!((log.base(), log.head()), (Version(3), Version(3)));
        assert!(log.since(Version(3)).is_empty());
        assert!(log.since(Version(99)).is_empty());
        assert_eq!(log.append(&items(&[5])), Version(4));
        assert_eq!(rows(log.since(Version(3))), vec![(4, vec![5])]);
    }

    #[test]
    fn conflicts_scan_only_the_suffix_after_the_snapshot() {
        let log = log_of(&[&[1, 5], &[2], &[5, 9]]);
        assert!(log.conflicts(Version(0), &items(&[1])));
        assert!(!log.conflicts(Version(1), &items(&[1])));
        assert!(log.conflicts(Version(2), &items(&[0, 9])));
        assert!(!log.conflicts(Version(3), &items(&[5, 9])));
        assert!(!log.conflicts(Version(0), &items(&[])));
        assert!(!log.conflicts(Version(0), &items(&[3, 4, 6])));
    }
}
