//! The benchmark's own decorators around the layers it times.
//!
//! Each wraps a public interface of the system — [`Endpoint`],
//! [`CheckpointStore`], [`TypeManager`] — forwards every call, and opens
//! a span around the calls that do a layer's work. The same decorators
//! carry the delay injection the self-test uses to check that a slowdown
//! in one layer shows up in that layer's metric and in the workloads that
//! load it, and nowhere else.

use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::Bytes;
use eden_capability::{NodeId, ObjName, Rights};
use eden_kernel::{OpCtx, OpError, OpResult, TypeManager, TypeSpec};
use eden_obs::ObsRegistry;
use eden_store::{CheckpointStore, StoreError};
use eden_transport::{Endpoint, TransportError, TransportStats};
use eden_wire::{Frame, Value};

use crate::trace::{SpanName, Tracer};

/// Delays added to one layer's calls, for the self-test.
#[derive(Debug, Clone, Copy, Default)]
pub struct Inject {
    /// Added to every `CheckpointStore::put`.
    pub store_put: Duration,
    /// Added to every `Endpoint::send`.
    pub send: Duration,
}

/// What every decorator of one run shares: the tracer and the injection.
pub struct Probe {
    /// The run's span collector.
    pub tracer: Tracer,
    /// Injected delays (zero in benchmark runs).
    pub inject: Inject,
}

/// Busy-waits for `d`, so the injected delay is exact instead of
/// rounded up by a timer wake-up.
fn delay(d: Duration) {
    if d.is_zero() {
        return;
    }
    let until = Instant::now() + d;
    while Instant::now() < until {
        std::hint::spin_loop();
    }
}

/// An [`Endpoint`] that times `send` and `recv_batch`.
pub struct TimedEndpoint<E> {
    inner: Arc<E>,
    probe: Arc<Probe>,
}

impl<E: Endpoint> TimedEndpoint<E> {
    /// Wraps `inner`.
    pub fn new(inner: Arc<E>, probe: Arc<Probe>) -> Self {
        TimedEndpoint { inner, probe }
    }
}

impl<E: Endpoint> Endpoint for TimedEndpoint<E> {
    fn node(&self) -> NodeId {
        self.inner.node()
    }

    fn send(&self, frame: Frame) -> Result<(), TransportError> {
        let mut span = self.probe.tracer.open(SpanName::Send);
        if let Some(s) = span.as_mut() {
            s.set_arg(1);
        }
        delay(self.probe.inject.send);
        self.inner.send(frame)
    }

    fn recv(&self) -> Result<Frame, TransportError> {
        self.inner.recv()
    }

    fn recv_timeout(&self, timeout: Duration) -> Result<Option<Frame>, TransportError> {
        self.inner.recv_timeout(timeout)
    }

    fn recv_batch(&self, max: usize, timeout: Duration) -> Result<Vec<Frame>, TransportError> {
        let mut span = self.probe.tracer.open(SpanName::RecvBatch);
        let batch = self.inner.recv_batch(max, timeout)?;
        if let Some(s) = span.as_mut() {
            s.set_arg(batch.len() as u32);
        }
        Ok(batch)
    }

    fn peers(&self) -> Vec<NodeId> {
        self.inner.peers()
    }

    fn stats(&self) -> TransportStats {
        self.inner.stats()
    }

    fn attach_obs(&self, obs: Arc<ObsRegistry>) {
        self.inner.attach_obs(obs);
    }

    fn writer_probe(&self) -> Vec<(NodeId, u64, u64)> {
        self.inner.writer_probe()
    }

    fn shutdown(&self) {
        self.inner.shutdown();
    }
}

/// A [`CheckpointStore`] that times `put` and `latest`.
pub struct TimedStore<S> {
    inner: S,
    probe: Arc<Probe>,
}

impl<S: CheckpointStore> TimedStore<S> {
    /// Wraps `inner`.
    pub fn new(inner: S, probe: Arc<Probe>) -> Self {
        TimedStore { inner, probe }
    }
}

impl<S: CheckpointStore> CheckpointStore for TimedStore<S> {
    fn put(&self, name: ObjName, image: &[u8]) -> Result<u64, StoreError> {
        let mut span = self.probe.tracer.open(SpanName::StorePut);
        if let Some(s) = span.as_mut() {
            s.set_arg(u32::try_from(image.len()).unwrap_or(u32::MAX));
        }
        delay(self.probe.inject.store_put);
        self.inner.put(name, image)
    }

    fn latest(&self, name: ObjName) -> Result<Option<(u64, Bytes)>, StoreError> {
        let _span = self.probe.tracer.open(SpanName::StoreLatest);
        self.inner.latest(name)
    }

    fn get(&self, name: ObjName, version: u64) -> Result<Option<Bytes>, StoreError> {
        self.inner.get(name, version)
    }

    fn versions(&self, name: ObjName) -> Result<Vec<u64>, StoreError> {
        self.inner.versions(name)
    }

    fn delete(&self, name: ObjName) -> Result<(), StoreError> {
        self.inner.delete(name)
    }

    fn names(&self) -> Result<Vec<ObjName>, StoreError> {
        self.inner.names()
    }

    fn flush(&self) -> Result<(), StoreError> {
        self.inner.flush()
    }

    fn attach_obs(&self, obs: Arc<ObsRegistry>) {
        self.inner.attach_obs(obs);
    }
}

/// The benchmark's object type.
///
/// * `echo(args…)` returns its arguments (the TCP workloads);
/// * `read()` returns `[len(data), gen]`;
/// * `write(data, gen)` replaces the representation and checkpoints it
///   in the same invocation, returning the checkpoint version;
/// * `crash()` crashes the object (§4.4), which reincarnates from its
///   last checkpoint on the next invocation.
///
/// `initialize(data, gen)` sets and checkpoints the first state.
pub struct BenchObject {
    probe: Arc<Probe>,
}

impl BenchObject {
    /// The registered type name.
    pub const NAME: &'static str = "perfbench.obj";

    /// The type manager, timing `dispatch` into `probe`.
    pub fn new(probe: Arc<Probe>) -> Self {
        BenchObject { probe }
    }

    fn set_state(ctx: &OpCtx<'_>, args: &[Value]) -> Result<u64, OpError> {
        let data = args
            .first()
            .and_then(Value::as_blob)
            .ok_or_else(|| OpError::type_error("write(data: blob, gen: u64)"))?
            .clone();
        let gen = OpCtx::u64_arg(args, 1)?;
        ctx.mutate_repr(|r| {
            r.put("data", data);
            r.put_u64("gen", gen);
        })?;
        Ok(ctx.checkpoint()?)
    }
}

impl TypeManager for BenchObject {
    fn spec(&self) -> TypeSpec {
        TypeSpec::new(Self::NAME)
            .class("all", 64)
            .op("echo", "all", Rights::EXECUTE)
            .op("read", "all", Rights::READ)
            .op("write", "all", Rights::WRITE)
            .op("crash", "all", Rights::OWNER)
    }

    fn initialize(&self, ctx: &OpCtx<'_>, args: &[Value]) -> Result<(), OpError> {
        if !args.is_empty() {
            Self::set_state(ctx, args)?;
        }
        Ok(())
    }

    fn dispatch(&self, ctx: &OpCtx<'_>, op: &str, args: &[Value]) -> OpResult {
        let _span = self.probe.tracer.open(SpanName::Dispatch);
        match op {
            "echo" => Ok(args.to_vec()),
            "read" => Ok(ctx.read_repr(|r| {
                let len = r.get("data").map_or(0, |d| d.len() as u64);
                vec![Value::U64(len), Value::U64(r.get_u64("gen").unwrap_or(0))]
            })),
            "write" => Ok(vec![Value::U64(Self::set_state(ctx, args)?)]),
            "crash" => {
                ctx.crash();
                Ok(Vec::new())
            }
            other => Err(OpError::no_such_op(other)),
        }
    }
}
