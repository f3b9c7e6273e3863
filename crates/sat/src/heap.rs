//! Indexed max-heap over variables ordered by VSIDS activity.

use crate::Var;

/// A binary max-heap of variables keyed by an external activity array.
///
/// Supports `decrease`/`increase` updates in `O(log n)` because it keeps a
/// position index per variable, exactly like MiniSat's `VarOrder`.
#[derive(Debug, Default, Clone)]
pub(crate) struct VarHeap {
    heap: Vec<Var>,
    /// `pos[v] == usize::MAX` when `v` is not in the heap.
    pos: Vec<usize>,
}

impl VarHeap {
    pub(crate) fn new() -> VarHeap {
        VarHeap::default()
    }

    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.heap.len()
    }

    #[cfg(test)]
    pub(crate) fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    pub(crate) fn contains(&self, v: Var) -> bool {
        self.pos.get(v.index()).is_some_and(|&p| p != usize::MAX)
    }

    /// Makes room for a variable index (call when creating variables).
    pub(crate) fn grow_to(&mut self, n_vars: usize) {
        if self.pos.len() < n_vars {
            self.pos.resize(n_vars, usize::MAX);
        }
    }

    pub(crate) fn push(&mut self, v: Var, activity: &[f64]) {
        if self.contains(v) {
            return;
        }
        self.grow_to(v.index() + 1);
        self.pos[v.index()] = self.heap.len();
        self.heap.push(v);
        self.sift_up(self.heap.len() - 1, activity);
    }

    pub(crate) fn pop(&mut self, activity: &[f64]) -> Option<Var> {
        if self.heap.is_empty() {
            return None;
        }
        let top = self.heap[0];
        let last = self.heap.pop().expect("non-empty");
        self.pos[top.index()] = usize::MAX;
        if !self.heap.is_empty() {
            self.heap[0] = last;
            self.pos[last.index()] = 0;
            self.sift_down(0, activity);
        }
        Some(top)
    }

    /// Restores heap order after `v`'s activity increased.
    pub(crate) fn update(&mut self, v: Var, activity: &[f64]) {
        if let Some(&p) = self.pos.get(v.index()) {
            if p != usize::MAX {
                self.sift_up(p, activity);
            }
        }
    }

    fn sift_up(&mut self, mut i: usize, activity: &[f64]) {
        while i > 0 {
            let parent = (i - 1) / 2;
            if activity[self.heap[i].index()] <= activity[self.heap[parent].index()] {
                break;
            }
            self.swap(i, parent);
            i = parent;
        }
    }

    fn sift_down(&mut self, mut i: usize, activity: &[f64]) {
        loop {
            let l = 2 * i + 1;
            let r = 2 * i + 2;
            let mut best = i;
            if l < self.heap.len()
                && activity[self.heap[l].index()] > activity[self.heap[best].index()]
            {
                best = l;
            }
            if r < self.heap.len()
                && activity[self.heap[r].index()] > activity[self.heap[best].index()]
            {
                best = r;
            }
            if best == i {
                break;
            }
            self.swap(i, best);
            i = best;
        }
    }

    fn swap(&mut self, a: usize, b: usize) {
        self.heap.swap(a, b);
        self.pos[self.heap[a].index()] = a;
        self.pos[self.heap[b].index()] = b;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_activity_order() {
        let activity = vec![0.5, 3.0, 1.0, 2.0];
        let mut h = VarHeap::new();
        h.grow_to(4);
        for i in 0..4 {
            h.push(Var(i), &activity);
        }
        let order: Vec<u32> = std::iter::from_fn(|| h.pop(&activity))
            .map(|v| v.0)
            .collect();
        assert_eq!(order, vec![1, 3, 2, 0]);
    }

    #[test]
    fn update_after_bump() {
        let mut activity = vec![1.0, 2.0, 3.0];
        let mut h = VarHeap::new();
        h.grow_to(3);
        for i in 0..3 {
            h.push(Var(i), &activity);
        }
        activity[0] = 10.0;
        h.update(Var(0), &activity);
        assert_eq!(h.pop(&activity), Some(Var(0)));
    }

    #[test]
    fn duplicate_push_is_noop() {
        let activity = vec![1.0];
        let mut h = VarHeap::new();
        h.push(Var(0), &activity);
        h.push(Var(0), &activity);
        assert_eq!(h.len(), 1);
        assert_eq!(h.pop(&activity), Some(Var(0)));
        assert!(h.is_empty());
    }
}
