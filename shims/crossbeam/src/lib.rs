//! Offline stand-in for `crossbeam`: scoped threads built on
//! `std::thread::scope` with crossbeam's `Result`-returning API shape.

#![forbid(unsafe_code)]

/// Scoped threads.
pub mod thread {
    use std::any::Any;

    /// Handle for spawning threads inside a [`scope`].
    #[derive(Clone, Copy)]
    pub struct Scope<'scope, 'env: 'scope> {
        inner: &'scope std::thread::Scope<'scope, 'env>,
    }

    impl<'scope, 'env> Scope<'scope, 'env> {
        /// Spawns a scoped thread; the closure receives the scope handle
        /// (crossbeam's signature) and its result is returned by `join`.
        pub fn spawn<F, T>(&self, f: F) -> std::thread::ScopedJoinHandle<'scope, T>
        where
            F: FnOnce(&Scope<'scope, 'env>) -> T + Send + 'scope,
            T: Send + 'scope,
        {
            let handle = *self;
            self.inner.spawn(move || f(&handle))
        }
    }

    /// Runs `f` with a scope in which spawned threads may borrow from the
    /// enclosing stack frame; all threads are joined before returning.
    ///
    /// Matching crossbeam, the outcome is a `Result` whose error carries a
    /// child panic payload. With `std::thread::scope` underneath, a child
    /// panic propagates when the scope joins, so the `Err` arm is vestigial
    /// — callers' `.expect(...)` remains correct either way.
    pub fn scope<'env, F, R>(f: F) -> Result<R, Box<dyn Any + Send + 'static>>
    where
        F: for<'scope> FnOnce(&Scope<'scope, 'env>) -> R,
    {
        Ok(std::thread::scope(|s| f(&Scope { inner: s })))
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn scoped_workers_return_results() {
        let data = [1u64, 2, 3, 4];
        let total: u64 = super::thread::scope(|scope| {
            let handles: Vec<_> = data.iter().map(|&n| scope.spawn(move |_| n * 10)).collect();
            handles.into_iter().map(|h| h.join().unwrap()).sum()
        })
        .expect("scope does not panic");
        assert_eq!(total, 100);
    }
}
