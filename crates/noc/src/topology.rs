//! Mesh topology, coordinates, and dimension-order (XY) routing.

use consim_types::{NodeId, SimError};
use std::fmt;

/// A direction out of a mesh router, or the local ejection port.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Direction {
    /// Toward larger x.
    East,
    /// Toward smaller x.
    West,
    /// Toward larger y.
    North,
    /// Toward smaller y.
    South,
    /// The attached endpoint (core / LLC bank / memory controller).
    Local,
}

impl Direction {
    /// A stable index in `0..5` for array-indexed port state.
    pub const fn port_index(self) -> usize {
        match self {
            Direction::East => 0,
            Direction::West => 1,
            Direction::North => 2,
            Direction::South => 3,
            Direction::Local => 4,
        }
    }
}

impl fmt::Display for Direction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Direction::East => "E",
            Direction::West => "W",
            Direction::North => "N",
            Direction::South => "S",
            Direction::Local => "L",
        };
        f.write_str(s)
    }
}

/// A mesh coordinate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Coord {
    /// Column, `0..width`.
    pub x: usize,
    /// Row, `0..height`.
    pub y: usize,
}

impl Coord {
    /// Creates a coordinate.
    pub const fn new(x: usize, y: usize) -> Self {
        Self { x, y }
    }

    /// Manhattan distance to another coordinate.
    pub fn manhattan(self, other: Coord) -> usize {
        self.x.abs_diff(other.x) + self.y.abs_diff(other.y)
    }
}

impl fmt::Display for Coord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({},{})", self.x, self.y)
    }
}

/// A `width x height` 2-D mesh.
///
/// Node ids are assigned row-major: node `y * width + x` sits at `(x, y)`.
///
/// # Examples
///
/// ```
/// use consim_noc::topology::{Coord, Mesh};
/// use consim_types::NodeId;
///
/// let mesh = Mesh::new(4, 4)?;
/// assert_eq!(mesh.coord_of(NodeId::new(5)), Coord::new(1, 1));
/// assert_eq!(mesh.hops(NodeId::new(0), NodeId::new(15)), 6);
/// # Ok::<(), consim_types::SimError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Mesh {
    width: usize,
    height: usize,
}

impl Mesh {
    /// Creates a mesh.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] if either dimension is zero.
    pub fn new(width: usize, height: usize) -> Result<Self, SimError> {
        if width == 0 || height == 0 {
            return Err(SimError::invalid_config("mesh dimensions must be nonzero"));
        }
        Ok(Self { width, height })
    }

    /// Mesh width (columns).
    pub const fn width(&self) -> usize {
        self.width
    }

    /// Mesh height (rows).
    pub const fn height(&self) -> usize {
        self.height
    }

    /// Total node count.
    pub const fn num_nodes(&self) -> usize {
        self.width * self.height
    }

    /// The coordinate of a node.
    ///
    /// # Panics
    ///
    /// Panics if the node is outside the mesh.
    pub fn coord_of(&self, node: NodeId) -> Coord {
        assert!(node.index() < self.num_nodes(), "node {node} outside mesh");
        Coord::new(node.index() % self.width, node.index() / self.width)
    }

    /// The node at a coordinate.
    ///
    /// # Panics
    ///
    /// Panics if the coordinate is outside the mesh.
    pub fn node_at(&self, coord: Coord) -> NodeId {
        assert!(
            coord.x < self.width && coord.y < self.height,
            "coordinate {coord} outside mesh"
        );
        NodeId::new(coord.y * self.width + coord.x)
    }

    /// The neighbor of `node` in `dir`, if it exists (`Local` has none).
    pub fn neighbor(&self, node: NodeId, dir: Direction) -> Option<NodeId> {
        let c = self.coord_of(node);
        let next = match dir {
            Direction::East if c.x + 1 < self.width => Coord::new(c.x + 1, c.y),
            Direction::West if c.x > 0 => Coord::new(c.x - 1, c.y),
            Direction::North if c.y + 1 < self.height => Coord::new(c.x, c.y + 1),
            Direction::South if c.y > 0 => Coord::new(c.x, c.y - 1),
            _ => return None,
        };
        Some(self.node_at(next))
    }

    /// The next output direction under XY (dimension-order) routing:
    /// x first, then y, then `Local` on arrival.
    pub fn route_xy(&self, at: NodeId, dst: NodeId) -> Direction {
        let a = self.coord_of(at);
        let d = self.coord_of(dst);
        if a.x < d.x {
            Direction::East
        } else if a.x > d.x {
            Direction::West
        } else if a.y < d.y {
            Direction::North
        } else if a.y > d.y {
            Direction::South
        } else {
            Direction::Local
        }
    }

    /// The full XY path from `src` to `dst` as a list of traversed nodes,
    /// starting with `src` and ending with `dst`.
    pub fn path_xy(&self, src: NodeId, dst: NodeId) -> Vec<NodeId> {
        let mut path = vec![src];
        let mut at = src;
        while at != dst {
            let dir = self.route_xy(at, dst);
            at = self.neighbor(at, dir).expect("XY route stays in mesh");
            path.push(at);
        }
        path
    }

    /// Number of link traversals between two nodes (Manhattan distance).
    pub fn hops(&self, src: NodeId, dst: NodeId) -> usize {
        self.coord_of(src).manhattan(self.coord_of(dst))
    }

    /// A stable index for the directed link out of `node` in `dir`, for
    /// array-indexed link state. Returns indices in
    /// `0 .. num_nodes() * 4`.
    ///
    /// # Panics
    ///
    /// Panics for `Direction::Local` (not a link).
    pub fn link_index(&self, node: NodeId, dir: Direction) -> usize {
        assert!(dir != Direction::Local, "local port is not a link");
        node.index() * 4 + dir.port_index()
    }

    /// Upper bound of [`Mesh::link_index`] values.
    pub fn num_link_slots(&self) -> usize {
        self.num_nodes() * 4
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mesh4() -> Mesh {
        Mesh::new(4, 4).unwrap()
    }

    #[test]
    fn rejects_zero_dimensions() {
        assert!(Mesh::new(0, 4).is_err());
        assert!(Mesh::new(4, 0).is_err());
    }

    #[test]
    fn coord_node_roundtrip() {
        let m = mesh4();
        for i in 0..16 {
            let n = NodeId::new(i);
            assert_eq!(m.node_at(m.coord_of(n)), n);
        }
    }

    #[test]
    fn neighbors_respect_edges() {
        let m = mesh4();
        // Corner (0,0) = node 0.
        assert_eq!(m.neighbor(NodeId::new(0), Direction::West), None);
        assert_eq!(m.neighbor(NodeId::new(0), Direction::South), None);
        assert_eq!(
            m.neighbor(NodeId::new(0), Direction::East),
            Some(NodeId::new(1))
        );
        assert_eq!(
            m.neighbor(NodeId::new(0), Direction::North),
            Some(NodeId::new(4))
        );
        assert_eq!(m.neighbor(NodeId::new(0), Direction::Local), None);
    }

    #[test]
    fn xy_route_goes_x_first() {
        let m = mesh4();
        // From (0,0) to (2,3): first two hops east.
        assert_eq!(m.route_xy(NodeId::new(0), NodeId::new(14)), Direction::East);
        assert_eq!(m.route_xy(NodeId::new(1), NodeId::new(14)), Direction::East);
        assert_eq!(
            m.route_xy(NodeId::new(2), NodeId::new(14)),
            Direction::North
        );
        assert_eq!(
            m.route_xy(NodeId::new(14), NodeId::new(14)),
            Direction::Local
        );
    }

    #[test]
    fn paths_are_minimal() {
        let m = mesh4();
        for s in 0..16 {
            for d in 0..16 {
                let src = NodeId::new(s);
                let dst = NodeId::new(d);
                let path = m.path_xy(src, dst);
                assert_eq!(path.len(), m.hops(src, dst) + 1, "{src}->{dst}");
                assert_eq!(path[0], src);
                assert_eq!(*path.last().unwrap(), dst);
                // Consecutive nodes are mesh neighbors.
                for w in path.windows(2) {
                    assert_eq!(m.hops(w[0], w[1]), 1);
                }
            }
        }
    }

    #[test]
    fn link_indices_are_unique() {
        let m = mesh4();
        let mut seen = std::collections::HashSet::new();
        for n in 0..16 {
            for dir in [
                Direction::East,
                Direction::West,
                Direction::North,
                Direction::South,
            ] {
                assert!(seen.insert(m.link_index(NodeId::new(n), dir)));
            }
        }
        assert!(seen.iter().all(|&i| i < m.num_link_slots()));
    }

    #[test]
    fn manhattan_distance() {
        assert_eq!(Coord::new(0, 0).manhattan(Coord::new(3, 3)), 6);
        assert_eq!(Coord::new(2, 1).manhattan(Coord::new(2, 1)), 0);
    }

    #[test]
    #[should_panic(expected = "outside mesh")]
    fn coord_of_out_of_range_panics() {
        mesh4().coord_of(NodeId::new(16));
    }

    #[test]
    #[should_panic(expected = "not a link")]
    fn local_link_index_panics() {
        mesh4().link_index(NodeId::new(0), Direction::Local);
    }

    #[test]
    fn non_square_mesh() {
        let m = Mesh::new(8, 2).unwrap();
        assert_eq!(m.num_nodes(), 16);
        assert_eq!(m.coord_of(NodeId::new(9)), Coord::new(1, 1));
        assert_eq!(m.hops(NodeId::new(0), NodeId::new(15)), 8);
    }
}
