//! The persistent commit log, kept as one flat item arena.

use std::ops::Range;

use tashkent_engine::{items_intersect, Version, WritesetItem};

/// The certifier's persistent log (§4.1): the items of every committed
/// writeset, in commit order, in one flat arena.
///
/// Entry `i` has version `i + 1` and owns `items[ends[i - 1]..ends[i]]`
/// (from 0 for the first entry). Nothing after commit reads a writeset's
/// transaction, type or snapshot, so only its sorted items are kept: 16 B per
/// item plus 4 B per entry.
///
/// # Examples
///
/// ```
/// use tashkent_certifier::CommitLog;
/// use tashkent_engine::{Version, WritesetItem};
/// use tashkent_storage::RelationId;
///
/// let item = |row| WritesetItem { rel: RelationId(0), row };
/// let mut log = CommitLog::default();
/// assert_eq!(log.append(&[item(1), item(2)]), Version(1));
/// assert_eq!(log.append(&[item(3)]), Version(2));
///
/// // A snapshot taken before version 2 conflicts on its row...
/// assert!(log.conflicts(Version(1), &[item(3)]));
/// // ...one taken after it does not.
/// assert!(!log.conflicts(Version(2), &[item(3)]));
///
/// let tail: Vec<_> = log.since(Version(1)).iter().collect();
/// assert_eq!(tail, vec![(Version(2), &[item(3)][..])]);
/// ```
#[derive(Debug, Clone, Default)]
pub struct CommitLog {
    items: Vec<WritesetItem>,
    /// One past each entry's last item in `items`.
    ends: Vec<u32>,
}

impl CommitLog {
    /// Latest committed version (the log head).
    pub fn head(&self) -> Version {
        Version(self.ends.len() as u64)
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// Whether nothing has committed yet.
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// Appends one committed writeset's sorted items; returns its version.
    pub fn append(&mut self, items: &[WritesetItem]) -> Version {
        self.items.extend_from_slice(items);
        let end = u32::try_from(self.items.len()).expect("commit log item offsets fit u32");
        self.ends.push(end);
        self.head()
    }

    /// The entries with versions in `(after, head]`: what a replica at
    /// version `after` must apply to catch up.
    pub fn since(&self, after: Version) -> LogView<'_> {
        let hi = self.ends.len();
        LogView {
            log: self,
            lo: (after.0 as usize).min(hi),
            hi,
        }
    }

    /// GSI's write-write conflict check (§4.1): whether any entry committed
    /// after `snapshot` writes one of `items` (sorted).
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

    /// Entry `i` of the view.
    ///
    /// # Panics
    ///
    /// Panics if `i` is not below [`LogView::len`].
    pub fn get(&self, i: usize) -> (Version, &'a [WritesetItem]) {
        assert!(i < self.len(), "log view index {i} out of {}", self.len());
        let at = self.lo + i;
        (Version(at as u64 + 1), self.log.entry(at))
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
        let hi = (version.0.saturating_sub(1) as usize).clamp(self.lo, self.hi);
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
            version: self.lo as u64,
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
            .map(|&row| WritesetItem {
                rel: RelationId(0),
                row,
            })
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
            .map(|(v, items)| (v.0, items.iter().map(|i| i.row).collect()))
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
