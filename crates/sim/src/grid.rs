//! Grid and block geometry types.

use std::fmt;

/// A 3-component extent or index, mirroring CUDA's `dim3`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Dim3 {
    /// X component.
    pub x: u32,
    /// Y component.
    pub y: u32,
    /// Z component.
    pub z: u32,
}

impl Dim3 {
    /// A 1-D extent `(x, 1, 1)`.
    pub fn x(x: u32) -> Self {
        Dim3 { x, y: 1, z: 1 }
    }

    /// A 2-D extent `(x, y, 1)`.
    pub fn xy(x: u32, y: u32) -> Self {
        Dim3 { x, y, z: 1 }
    }

    /// Total element count, `x * y * z`.
    pub fn count(&self) -> u64 {
        u64::from(self.x) * u64::from(self.y) * u64::from(self.z)
    }

    /// The index at linear position `i` in x-major order.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.count()`.
    pub fn index_at(&self, i: u64) -> Dim3 {
        assert!(i < self.count(), "linear index {i} out of {}", self.count());
        let x = (i % u64::from(self.x)) as u32;
        let rest = i / u64::from(self.x);
        let y = (rest % u64::from(self.y)) as u32;
        let z = (rest / u64::from(self.y)) as u32;
        Dim3 { x, y, z }
    }

    /// The linear position of `idx` in x-major order.
    pub fn linear_of(&self, idx: Dim3) -> u64 {
        u64::from(idx.x)
            + u64::from(idx.y) * u64::from(self.x)
            + u64::from(idx.z) * u64::from(self.x) * u64::from(self.y)
    }
}

impl From<u32> for Dim3 {
    fn from(x: u32) -> Self {
        Dim3::x(x)
    }
}

impl From<(u32, u32)> for Dim3 {
    fn from((x, y): (u32, u32)) -> Self {
        Dim3::xy(x, y)
    }
}

impl fmt::Display for Dim3 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}, {}, {})", self.x, self.y, self.z)
    }
}

/// A kernel launch shape: grid of CTAs × block of threads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LaunchDims {
    /// CTAs in the grid.
    pub grid: Dim3,
    /// Threads in each CTA.
    pub block: Dim3,
}

impl LaunchDims {
    /// Creates launch dimensions from anything convertible to [`Dim3`].
    pub fn new(grid: impl Into<Dim3>, block: impl Into<Dim3>) -> Self {
        LaunchDims {
            grid: grid.into(),
            block: block.into(),
        }
    }

    /// Threads per CTA.
    pub fn threads_per_cta(&self) -> u32 {
        self.block.count() as u32
    }

    /// Total threads in the launch.
    pub fn total_threads(&self) -> u64 {
        self.grid.count() * self.block.count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_roundtrip() {
        let d = Dim3 { x: 4, y: 3, z: 2 };
        for i in 0..d.count() {
            let idx = d.index_at(i);
            assert_eq!(d.linear_of(idx), i);
            assert!(idx.x < 4 && idx.y < 3 && idx.z < 2);
        }
    }

    #[test]
    #[should_panic(expected = "out of")]
    fn index_at_bounds() {
        Dim3::x(4).index_at(4);
    }

    #[test]
    fn launch_dims_counts() {
        let d = LaunchDims::new((8, 2), 128);
        assert_eq!(d.threads_per_cta(), 128);
        assert_eq!(d.total_threads(), 8 * 2 * 128);
    }
}
