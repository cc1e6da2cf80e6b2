//! 2-D Cartesian processor grids with 8-neighbor stencils.
//!
//! §4.2 assigns processors to a 2-D grid "in a row-wise scan pattern" and
//! notes that locality-preserving space-filling curves (Morton order) are a
//! promising alternative. Both placements are implemented; the distributed
//! MFP takes the grid as a parameter so the ablation bench can compare
//! them.

/// How ranks are laid out on the processor grid.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RankOrder {
    /// Rank `r` at `(row, col) = (r / px, r % px)` — the paper's default.
    RowMajor,
    /// Ranks follow the Morton (Z-order) curve over the grid cells,
    /// improving locality between numerically adjacent ranks.
    Morton,
}

/// The eight stencil directions of the halo exchange (Fig. 4).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Direction {
    /// Up (+row).
    North,
    /// Down (−row).
    South,
    /// Right (+col).
    East,
    /// Left (−col).
    West,
    /// Up-right diagonal.
    NorthEast,
    /// Up-left diagonal.
    NorthWest,
    /// Down-right diagonal.
    SouthEast,
    /// Down-left diagonal.
    SouthWest,
}

impl Direction {
    /// All eight directions.
    pub const ALL: [Direction; 8] = [
        Direction::North,
        Direction::South,
        Direction::East,
        Direction::West,
        Direction::NorthEast,
        Direction::NorthWest,
        Direction::SouthEast,
        Direction::SouthWest,
    ];

    /// `(d_row, d_col)` offset of this direction.
    pub fn offset(&self) -> (isize, isize) {
        match self {
            Direction::North => (1, 0),
            Direction::South => (-1, 0),
            Direction::East => (0, 1),
            Direction::West => (0, -1),
            Direction::NorthEast => (1, 1),
            Direction::NorthWest => (1, -1),
            Direction::SouthEast => (-1, 1),
            Direction::SouthWest => (-1, -1),
        }
    }

    /// The direction a neighbor uses to refer back to us.
    pub fn opposite(&self) -> Direction {
        match self {
            Direction::North => Direction::South,
            Direction::South => Direction::North,
            Direction::East => Direction::West,
            Direction::West => Direction::East,
            Direction::NorthEast => Direction::SouthWest,
            Direction::NorthWest => Direction::SouthEast,
            Direction::SouthEast => Direction::NorthWest,
            Direction::SouthWest => Direction::NorthEast,
        }
    }
}

/// A `py × px` grid of ranks.
#[derive(Clone, Debug)]
pub struct CartesianGrid {
    py: usize,
    px: usize,
    /// cell (row-major index) → rank
    rank_of_cell: Vec<usize>,
    /// rank → (row, col)
    coords_of_rank: Vec<(usize, usize)>,
}

impl CartesianGrid {
    /// Build a grid with the given rank placement.
    pub fn new(py: usize, px: usize, order: RankOrder) -> Self {
        assert!(py >= 1 && px >= 1, "CartesianGrid: empty grid");
        let n = py * px;
        let mut coords_of_rank = Vec::with_capacity(n);
        match order {
            RankOrder::RowMajor => {
                for r in 0..n {
                    coords_of_rank.push((r / px, r % px));
                }
            }
            RankOrder::Morton => {
                // Sort cells by Morton code; rank i gets the i-th cell.
                let mut cells: Vec<(u64, (usize, usize))> = (0..py)
                    .flat_map(|row| (0..px).map(move |col| (morton2(row, col), (row, col))))
                    .collect();
                cells.sort_by_key(|&(code, _)| code);
                coords_of_rank = cells.into_iter().map(|(_, rc)| rc).collect();
            }
        }
        let mut rank_of_cell = vec![0; n];
        for (rank, &(row, col)) in coords_of_rank.iter().enumerate() {
            rank_of_cell[row * px + col] = rank;
        }
        Self {
            py,
            px,
            rank_of_cell,
            coords_of_rank,
        }
    }

    /// Nearly square factorization of `p` ranks (√P×√P when P is a
    /// perfect square, else the most balanced `py×px = p`).
    pub fn square_for(p: usize, order: RankOrder) -> Self {
        assert!(p >= 1);
        let mut py = (p as f64).sqrt() as usize;
        while !p.is_multiple_of(py) {
            py -= 1;
        }
        Self::new(py, p / py, order)
    }

    /// Grid height (rows of processors).
    pub fn py(&self) -> usize {
        self.py
    }

    /// Grid width (columns of processors).
    pub fn px(&self) -> usize {
        self.px
    }

    /// Number of ranks.
    pub fn size(&self) -> usize {
        self.py * self.px
    }

    /// `(row, col)` of a rank.
    pub fn coords_of(&self, rank: usize) -> (usize, usize) {
        self.coords_of_rank[rank]
    }

    /// Rank at a grid cell.
    pub fn rank_at(&self, row: usize, col: usize) -> usize {
        assert!(
            row < self.py && col < self.px,
            "rank_at: ({row},{col}) out of grid"
        );
        self.rank_of_cell[row * self.px + col]
    }

    /// Neighbor rank in a direction, if inside the grid.
    pub fn neighbor(&self, rank: usize, dir: Direction) -> Option<usize> {
        let (row, col) = self.coords_of(rank);
        let (dr, dc) = dir.offset();
        let nr = row as isize + dr;
        let nc = col as isize + dc;
        if nr < 0 || nc < 0 || nr >= self.py as isize || nc >= self.px as isize {
            None
        } else {
            Some(self.rank_at(nr as usize, nc as usize))
        }
    }

    /// All existing stencil neighbors `(direction, rank)` of a rank.
    pub fn neighbors(&self, rank: usize) -> Vec<(Direction, usize)> {
        Direction::ALL
            .iter()
            .filter_map(|&d| self.neighbor(rank, d).map(|r| (d, r)))
            .collect()
    }
}

/// Groups consecutive ranks into fixed-size "nodes" for hierarchical
/// collectives.
///
/// Under the row-major rank order, consecutive ranks are horizontal
/// neighbors in the processor grid, so a node is a contiguous row
/// segment and intra-node traffic stays topologically local — the
/// simulated analogue of keeping the first reduction level inside a
/// multi-GPU node before touching the interconnect. The last node may be
/// short when `size` is not a multiple of `node_size`.
#[derive(Clone, Copy, Debug)]
pub struct NodeMap {
    size: usize,
    node_size: usize,
}

impl NodeMap {
    /// Partition `size` ranks into nodes of `node_size` consecutive ranks.
    pub fn new(size: usize, node_size: usize) -> Self {
        assert!(size >= 1 && node_size >= 1, "NodeMap: empty grouping");
        NodeMap { size, node_size }
    }

    /// Node index of a rank.
    pub fn node_of(&self, rank: usize) -> usize {
        rank / self.node_size
    }

    /// The leader (lowest rank) of the node containing `rank`.
    pub fn leader_of(&self, rank: usize) -> usize {
        self.node_of(rank) * self.node_size
    }

    /// Whether `rank` leads its node.
    pub fn is_leader(&self, rank: usize) -> bool {
        rank.is_multiple_of(self.node_size)
    }

    /// Number of nodes (the last one may be short).
    pub fn num_nodes(&self) -> usize {
        self.size.div_ceil(self.node_size)
    }

    /// Ranks in a node, leader first.
    pub fn members(&self, node: usize) -> std::ops::Range<usize> {
        let lo = node * self.node_size;
        lo..(lo + self.node_size).min(self.size)
    }
}

/// Interleave the low 32 bits of `row` and `col` into a Morton code.
fn morton2(row: usize, col: usize) -> u64 {
    fn spread(mut x: u64) -> u64 {
        x &= 0xFFFF_FFFF;
        x = (x | (x << 16)) & 0x0000_FFFF_0000_FFFF;
        x = (x | (x << 8)) & 0x00FF_00FF_00FF_00FF;
        x = (x | (x << 4)) & 0x0F0F_0F0F_0F0F_0F0F;
        x = (x | (x << 2)) & 0x3333_3333_3333_3333;
        x = (x | (x << 1)) & 0x5555_5555_5555_5555;
        x
    }
    (spread(row as u64) << 1) | spread(col as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn row_major_layout() {
        let g = CartesianGrid::new(3, 3, RankOrder::RowMajor);
        assert_eq!(g.coords_of(0), (0, 0));
        assert_eq!(g.coords_of(4), (1, 1));
        assert_eq!(g.rank_at(2, 1), 7);
    }

    #[test]
    fn interior_rank_has_eight_neighbors() {
        let g = CartesianGrid::new(3, 3, RankOrder::RowMajor);
        let n = g.neighbors(4); // center of 3x3
        assert_eq!(n.len(), 8);
        let ranks: Vec<usize> = n.iter().map(|&(_, r)| r).collect();
        for r in [0, 1, 2, 3, 5, 6, 7, 8] {
            assert!(ranks.contains(&r));
        }
    }

    #[test]
    fn corner_rank_has_three_neighbors() {
        let g = CartesianGrid::new(3, 3, RankOrder::RowMajor);
        assert_eq!(g.neighbors(0).len(), 3);
        assert_eq!(g.neighbors(8).len(), 3);
    }

    #[test]
    fn edge_rank_has_five_neighbors() {
        let g = CartesianGrid::new(3, 3, RankOrder::RowMajor);
        assert_eq!(g.neighbors(1).len(), 5);
    }

    #[test]
    fn neighbor_relation_is_symmetric() {
        let g = CartesianGrid::new(4, 5, RankOrder::RowMajor);
        for rank in 0..g.size() {
            for (dir, nb) in g.neighbors(rank) {
                assert_eq!(
                    g.neighbor(nb, dir.opposite()),
                    Some(rank),
                    "asymmetric: {rank} --{dir:?}--> {nb}"
                );
            }
        }
    }

    #[test]
    fn morton_is_a_bijection() {
        let g = CartesianGrid::new(4, 4, RankOrder::Morton);
        let mut seen = std::collections::HashSet::new();
        for rank in 0..16 {
            let c = g.coords_of(rank);
            assert!(seen.insert(c));
            assert_eq!(g.rank_at(c.0, c.1), rank);
        }
    }

    #[test]
    fn morton_first_quad_stays_local() {
        // On a 4x4 grid, Z-order visits the 2x2 sub-block first.
        let g = CartesianGrid::new(4, 4, RankOrder::Morton);
        let first4: std::collections::HashSet<_> = (0..4).map(|r| g.coords_of(r)).collect();
        let expect: std::collections::HashSet<_> =
            [(0, 0), (0, 1), (1, 0), (1, 1)].into_iter().collect();
        assert_eq!(first4, expect);
    }

    #[test]
    fn morton_improves_average_neighbor_rank_distance() {
        // Locality metric: mean |rank - neighbor_rank| over all pairs.
        let metric = |order: RankOrder| {
            let g = CartesianGrid::new(8, 8, order);
            let mut total = 0usize;
            let mut count = 0usize;
            for rank in 0..g.size() {
                for (_, nb) in g.neighbors(rank) {
                    total += rank.abs_diff(nb);
                    count += 1;
                }
            }
            total as f64 / count as f64
        };
        assert!(
            metric(RankOrder::Morton) < metric(RankOrder::RowMajor),
            "Morton should reduce average rank distance"
        );
    }

    #[test]
    fn square_for_prefers_balanced_factorizations() {
        let g = CartesianGrid::square_for(16, RankOrder::RowMajor);
        assert_eq!((g.py(), g.px()), (4, 4));
        let g = CartesianGrid::square_for(8, RankOrder::RowMajor);
        assert_eq!((g.py(), g.px()), (2, 4));
        let g = CartesianGrid::square_for(7, RankOrder::RowMajor);
        assert_eq!((g.py(), g.px()), (1, 7));
    }

    #[test]
    fn node_map_partitions_contiguous_ranks() {
        let nm = NodeMap::new(20, 8);
        assert_eq!(nm.num_nodes(), 3);
        assert_eq!(nm.node_of(0), 0);
        assert_eq!(nm.node_of(15), 1);
        assert_eq!(nm.leader_of(17), 16);
        assert!(nm.is_leader(8));
        assert!(!nm.is_leader(9));
        assert_eq!(nm.members(2), 16..20); // last node is short
                                           // Every rank belongs to exactly one node and its leader's node.
        for r in 0..20 {
            assert!(nm.members(nm.node_of(r)).contains(&r));
            assert_eq!(nm.node_of(nm.leader_of(r)), nm.node_of(r));
        }
    }

    #[test]
    fn direction_opposites_compose_to_identity() {
        for d in Direction::ALL {
            assert_eq!(d.opposite().opposite(), d);
            let (a, b) = d.offset();
            let (oa, ob) = d.opposite().offset();
            assert_eq!((a + oa, b + ob), (0, 0));
        }
    }
}
