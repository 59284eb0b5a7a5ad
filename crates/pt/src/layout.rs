//! Page-table layouts: which adjacent levels are merged (flattened).

use flatwalk_types::key::KeyWriter;
use flatwalk_types::Level;

use crate::NodeShape;

/// A contiguous run of levels merged into one node shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LevelGroup {
    /// The uppermost level of the group.
    pub top: Level,
    /// How many levels the group merges (1–3).
    pub depth: u8,
}

impl LevelGroup {
    /// The lowest level in the group.
    pub fn bottom(self) -> Level {
        Level::from_rank(self.top.rank() - (self.depth - 1)).expect("valid group")
    }

    /// Node shape implied by the group's depth.
    pub fn shape(self) -> NodeShape {
        NodeShape::from_depth(self.depth).expect("depth validated at construction")
    }
}

/// A *target* organization of the page table: a partition of the walk
/// levels, root first (paper Fig. 2/3).
///
/// This is the policy the OS *tries* to realize; individual nodes may
/// still fall back to conventional shape when a large allocation fails
/// (paper §3.2 "graceful fallback"), so the realized structure is read
/// from the entries' shape bits, not from the layout.
///
/// # Examples
///
/// ```
/// use flatwalk_pt::Layout;
/// use flatwalk_types::Level;
///
/// let l = Layout::flat_l4l3_l2l1();
/// assert_eq!(l.groups().len(), 2);
/// assert_eq!(l.root_level(), Level::L4);
/// assert_eq!(l.group_of(Level::L1).top, Level::L2);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Layout {
    groups: Vec<LevelGroup>,
}

impl Layout {
    /// Builds a layout from root-first groups.
    ///
    /// # Errors
    ///
    /// Returns a message if the groups do not exactly tile the levels
    /// from the first group's top down to `L1`, or a depth is outside
    /// 1–3.
    pub fn from_groups(groups: Vec<LevelGroup>) -> Result<Layout, String> {
        if groups.is_empty() {
            return Err("layout needs at least one group".into());
        }
        let mut expected_top = groups[0].top;
        for (i, g) in groups.iter().enumerate() {
            if !(1..=3).contains(&g.depth) {
                return Err(format!("group {i} has invalid depth {}", g.depth));
            }
            if g.top != expected_top {
                return Err(format!(
                    "group {i} starts at {} but {} was expected",
                    g.top, expected_top
                ));
            }
            if g.top.rank() < g.depth {
                return Err(format!("group {i} extends below L1"));
            }
            match Level::from_rank(g.top.rank() - g.depth) {
                Some(next) => expected_top = next,
                None => {
                    if i + 1 != groups.len() {
                        return Err("groups continue past L1".into());
                    }
                    return Ok(Layout { groups });
                }
            }
        }
        Err("layout does not reach L1".into())
    }

    /// Writes the layout into a canonical content key: the group
    /// count, then each group's top level (by rank) and depth.
    pub fn write_key(&self, key: &mut KeyWriter) {
        let Layout { groups } = self;
        key.uint(groups.len() as u64);
        for &LevelGroup { top, depth } in groups {
            key.uint(u64::from(top.rank())).uint(u64::from(depth));
        }
    }

    /// Conventional 4-level table: `L4 → L3 → L2 → L1` (paper Fig. 2 top).
    pub fn conventional4() -> Layout {
        Self::of_depths(Level::L4, &[1, 1, 1, 1])
    }

    /// Conventional 5-level table (§3.6).
    pub fn conventional5() -> Layout {
        Self::of_depths(Level::L5, &[1, 1, 1, 1, 1])
    }

    /// The paper's main evaluated design: both `L4+L3` and `L2+L1`
    /// flattened (Fig. 2 bottom, Fig. 3 left).
    pub fn flat_l4l3_l2l1() -> Layout {
        Self::of_depths(Level::L4, &[2, 2])
    }

    /// Only the top two levels flattened (`L4+L3`), leaving conventional
    /// `L2` / `L1` (Fig. 3 middle).
    pub fn flat_l4l3() -> Layout {
        Self::of_depths(Level::L4, &[2, 1, 1])
    }

    /// The middle two levels flattened (`L3+L2`) — the paper's kernel
    /// prototype target, efficient for 2 MB data pages (Fig. 3 right,
    /// §6.2, §7.5).
    pub fn flat_l3l2() -> Layout {
        Self::of_depths(Level::L4, &[1, 2, 1])
    }

    /// Only the bottom two levels flattened (`L2+L1`).
    pub fn flat_l2l1() -> Layout {
        Self::of_depths(Level::L4, &[1, 1, 2])
    }

    /// Aggressive variant: `L4+L3+L2` in one 1 GB node, then `L1` (§3.2).
    pub fn flat_l4l3l2() -> Layout {
        Self::of_depths(Level::L4, &[3, 1])
    }

    /// Five-level analogue of the paper's design (§3.6): `L5+L4`,
    /// `L3+L2`, `L1`.
    pub fn flat5_l5l4_l3l2() -> Layout {
        Self::of_depths(Level::L5, &[2, 2, 1])
    }

    fn of_depths(root: Level, depths: &[u8]) -> Layout {
        let mut groups = Vec::with_capacity(depths.len());
        let mut top = root;
        for (i, &d) in depths.iter().enumerate() {
            groups.push(LevelGroup { top, depth: d });
            if i + 1 < depths.len() {
                top = Level::from_rank(top.rank() - d).expect("depths tile levels");
            }
        }
        Layout::from_groups(groups).expect("static layouts are valid")
    }

    /// The groups, root first.
    pub fn groups(&self) -> &[LevelGroup] {
        &self.groups
    }

    /// The level at which the walk starts.
    pub fn root_level(&self) -> Level {
        self.groups[0].top
    }

    /// The group containing `level`.
    ///
    /// # Panics
    ///
    /// Panics if `level` is above the root level.
    pub fn group_of(&self, level: Level) -> LevelGroup {
        *self
            .groups
            .iter()
            .find(|g| g.bottom().rank() <= level.rank() && level.rank() <= g.top.rank())
            .unwrap_or_else(|| panic!("{level} is not covered by this layout"))
    }

    /// The naive number of walk steps (no PWC, no large pages).
    pub fn walk_steps(&self) -> usize {
        self.groups.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn predefined_layouts_are_valid() {
        assert_eq!(Layout::conventional4().walk_steps(), 4);
        assert_eq!(Layout::conventional5().walk_steps(), 5);
        assert_eq!(Layout::flat_l4l3_l2l1().walk_steps(), 2);
        assert_eq!(Layout::flat_l4l3().walk_steps(), 3);
        assert_eq!(Layout::flat_l3l2().walk_steps(), 3);
        assert_eq!(Layout::flat_l2l1().walk_steps(), 3);
        assert_eq!(Layout::flat_l4l3l2().walk_steps(), 2);
        assert_eq!(Layout::flat5_l5l4_l3l2().walk_steps(), 3);
    }

    #[test]
    fn group_bottoms() {
        let l = Layout::flat_l3l2();
        assert_eq!(l.group_of(Level::L4).bottom(), Level::L4);
        let mid = l.group_of(Level::L3);
        assert_eq!(mid.top, Level::L3);
        assert_eq!(mid.bottom(), Level::L2);
        assert_eq!(l.group_of(Level::L2), mid);
        assert_eq!(l.group_of(Level::L1).depth, 1);
    }

    #[test]
    fn invalid_layouts_rejected() {
        // Gap: L4 single then L2+L1 (skips L3).
        let bad = Layout::from_groups(vec![
            LevelGroup {
                top: Level::L4,
                depth: 1,
            },
            LevelGroup {
                top: Level::L2,
                depth: 2,
            },
        ]);
        assert!(bad.is_err());
        // Does not reach L1.
        let short = Layout::from_groups(vec![LevelGroup {
            top: Level::L4,
            depth: 2,
        }]);
        assert!(short.is_err());
        // Extends below L1.
        let deep = Layout::from_groups(vec![
            LevelGroup {
                top: Level::L4,
                depth: 2,
            },
            LevelGroup {
                top: Level::L2,
                depth: 3,
            },
        ]);
        assert!(deep.is_err());
        assert!(Layout::from_groups(vec![]).is_err());
    }

    #[test]
    fn shapes_follow_depth() {
        let l = Layout::flat_l4l3l2();
        assert_eq!(l.groups()[0].shape(), NodeShape::Flat3);
        assert_eq!(l.groups()[1].shape(), NodeShape::Conventional);
    }
}
