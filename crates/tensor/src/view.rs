//! Borrowed, contiguous tensor views.
//!
//! Views are produced by slicing owned [`crate::Tensor`]s along the leading
//! axis; they are the unit handed to parallel batch stages so that record
//! fan-out never copies the underlying field data.

use crate::dtype::Element;
use crate::tensor::{checked_count, Tensor, TensorError};
use std::borrow::Cow;

/// A borrowed, contiguous, row-major view over tensor data.
///
/// The shape is usually borrowed from the parent tensor; leading-axis range
/// slices own a small adjusted shape vector instead (hence `Cow`).
#[derive(Debug, Clone, PartialEq)]
pub struct TensorView<'a, T: Element> {
    data: &'a [T],
    shape: Cow<'a, [usize]>,
}

impl<'a, T: Element> TensorView<'a, T> {
    /// Construct from raw parts. `data.len()` must equal the shape product.
    pub(crate) fn new(data: &'a [T], shape: &'a [usize]) -> Self {
        debug_assert_eq!(data.len(), shape.iter().product::<usize>());
        TensorView {
            data,
            shape: Cow::Borrowed(shape),
        }
    }

    /// Construct from raw parts with an owned shape (used by range slices
    /// whose leading dimension differs from the parent's).
    pub(crate) fn new_owned_shape(data: &'a [T], shape: Vec<usize>) -> Self {
        debug_assert_eq!(data.len(), shape.iter().product::<usize>());
        TensorView {
            data,
            shape: Cow::Owned(shape),
        }
    }

    /// Construct a view over a flat slice with an explicit shape.
    pub fn from_slice(data: &'a [T], shape: &'a [usize]) -> Result<Self, TensorError> {
        if data.len() != checked_count(shape)? {
            return Err(TensorError::ShapeMismatch {
                elements: data.len(),
                shape: shape.to_vec(),
            });
        }
        Ok(TensorView {
            data,
            shape: Cow::Borrowed(shape),
        })
    }

    /// View shape.
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Number of axes.
    pub fn rank(&self) -> usize {
        self.shape.len()
    }

    /// Total elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Flat, row-major slice of the viewed elements.
    pub fn as_slice(&self) -> &'a [T] {
        self.data
    }

    /// Copy into an owned tensor.
    pub fn to_tensor(&self) -> Tensor<T> {
        Tensor::from_vec(self.data.to_vec(), &self.shape).expect("view shape is consistent")
    }

    /// Element at a multi-index.
    pub fn get(&self, index: &[usize]) -> Result<T, TensorError> {
        if index.len() != self.shape.len() {
            return Err(TensorError::AxisOutOfRange {
                axis: index.len(),
                rank: self.shape.len(),
            });
        }
        let mut off = 0;
        let mut stride = 1;
        for axis in (0..self.shape.len()).rev() {
            let (i, len) = (index[axis], self.shape[axis]);
            if i >= len {
                return Err(TensorError::IndexOutOfRange { index: i, len });
            }
            off += i * stride;
            stride *= len;
        }
        Ok(self.data[off])
    }

    /// Zero-copy subview at `index` along axis 0.
    pub fn index_axis0(&self, index: usize) -> Result<TensorView<'a, T>, TensorError> {
        if self.shape.is_empty() {
            return Err(TensorError::AxisOutOfRange { axis: 0, rank: 0 });
        }
        if index >= self.shape[0] {
            return Err(TensorError::IndexOutOfRange {
                index,
                len: self.shape[0],
            });
        }
        let inner: usize = self.shape[1..].iter().product();
        let sub = &self.data[index * inner..(index + 1) * inner];
        Ok(match &self.shape {
            Cow::Borrowed(shape) => TensorView::new(sub, &shape[1..]),
            Cow::Owned(shape) => TensorView::new_owned_shape(sub, shape[1..].to_vec()),
        })
    }

    /// Mean of viewed elements as f64 (None when empty).
    pub fn mean(&self) -> Option<f64> {
        if self.data.is_empty() {
            return None;
        }
        Some(self.data.iter().map(|x| x.to_f64()).sum::<f64>() / self.data.len() as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_slice_checks_shape() {
        let data = [1.0_f32, 2.0, 3.0, 4.0];
        let shape = [2, 2];
        let v = TensorView::from_slice(&data, &shape).unwrap();
        assert_eq!(v.len(), 4);
        assert_eq!(v.get(&[1, 0]).unwrap(), 3.0);
        let bad_shape = [3, 2];
        assert!(TensorView::from_slice(&data, &bad_shape).is_err());
    }

    #[test]
    fn nested_axis0() {
        let data: Vec<i32> = (0..12).collect();
        let shape = [2, 3, 2];
        let v = TensorView::from_slice(&data, &shape).unwrap();
        let sub = v.index_axis0(1).unwrap();
        assert_eq!(sub.shape(), &[3, 2]);
        assert_eq!(sub.as_slice(), &[6, 7, 8, 9, 10, 11]);
        let sub2 = sub.index_axis0(2).unwrap();
        assert_eq!(sub2.as_slice(), &[10, 11]);
        assert!(sub2.index_axis0(0).unwrap().index_axis0(0).is_err());
    }

    #[test]
    fn to_tensor_round_trip() {
        let t = Tensor::from_vec(vec![5_u8, 6, 7, 8], &[2, 2]).unwrap();
        let v = t.view();
        assert_eq!(v.to_tensor(), t);
    }

    #[test]
    fn view_mean() {
        let data = [2.0_f64, 4.0];
        let shape = [2];
        let v = TensorView::from_slice(&data, &shape).unwrap();
        assert_eq!(v.mean(), Some(3.0));
    }
}
