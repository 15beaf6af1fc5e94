//! The serving stack in the configuration the `serve` command ships:
//! `Obs::enabled()`, a WAL in a scratch directory, `shards = nproc`, the
//! engine budgets of `EngineConfig::from_miner`, and `ServeConfig`'s
//! defaults. Also a keep-alive client that follows the server's
//! connection policy.

use crate::trace::timed;
use pervasive_miner::obs::Obs;
use pervasive_miner::serve::client::Conn;
use pervasive_miner::serve::{
    RemineConfig, ServeConfig, ServeState, Server, ShutdownHandle, Snapshot,
};
use pervasive_miner::store::{Artifact, GenerationStore};
use pervasive_miner::stream::{EngineConfig, Recognizer, ShardConfig, ShardedEngine, WalConfig};
use std::net::SocketAddr;
use std::path::Path;
use std::sync::Arc;
use std::thread::JoinHandle;

pub struct Stack {
    pub store: GenerationStore,
    pub state: Arc<ServeState>,
    pub obs: Obs,
    pub addr: SocketAddr,
    pub snapshot: Arc<Snapshot>,
    handle: ShutdownHandle,
    thread: Option<JoinHandle<std::io::Result<()>>>,
}

/// The shipped engine shape for an artifact, sharded over every core, with
/// its WAL under `dir`.
pub fn shard_config(engine: EngineConfig, dir: &Path) -> ShardConfig {
    ShardConfig::new(crate::stats::cores(), engine).with_wal(WalConfig::new(dir))
}

pub fn recognizer(snapshot: &Arc<Snapshot>) -> Recognizer {
    let snapshot = Arc::clone(snapshot);
    Arc::new(move |pos| snapshot.primary_category(pos))
}

/// Publishes the artifact bytes as generation 1 of a store under `dir`,
/// loads it the way `serve` does, opens the WAL-backed engine, and starts
/// the server on a loopback port.
pub fn start(dir: &Path, bytes: &[u8]) -> Result<Stack, String> {
    let store = GenerationStore::open(
        dir.join("generations"),
        RemineConfig::default().keep_generations,
    )
    .map_err(|e| e.to_string())?;
    let receipt = timed("pm-store.publish", || store.publish(bytes)).map_err(|e| e.to_string())?;
    let artifact = Artifact::read_file(&receipt.path).map_err(|e| e.to_string())?;
    let engine = EngineConfig::from_miner(&artifact.params);
    let snapshot = Arc::new(Snapshot::new(artifact)?);
    let (engine, _recovery) = ShardedEngine::open(
        shard_config(engine, &dir.join("wal")),
        &recognizer(&snapshot),
    )
    .map_err(|e| e.to_string())?;
    let obs = Obs::enabled();
    let state = Arc::new(
        ServeState::with_engine(Arc::clone(&snapshot), engine)
            .with_reload_path(&receipt.path)
            .with_obs(obs.clone()),
    );
    let server = Server::bind_with_state(
        "127.0.0.1:0",
        Arc::clone(&state),
        ServeConfig::default(),
        obs.clone(),
    )
    .map_err(|e| e.to_string())?;
    let addr = server.local_addr().map_err(|e| e.to_string())?;
    let handle = server.shutdown_handle().map_err(|e| e.to_string())?;
    let thread = std::thread::spawn(move || server.run());
    Ok(Stack {
        store,
        state,
        obs,
        addr,
        snapshot,
        handle,
        thread: Some(thread),
    })
}

impl Stack {
    /// Drains and stops the server (which cuts its final WAL checkpoint).
    pub fn stop(mut self) -> Result<(), String> {
        self.shutdown()
    }

    fn shutdown(&mut self) -> Result<(), String> {
        let Some(thread) = self.thread.take() else {
            return Ok(());
        };
        self.handle.shutdown();
        match thread.join() {
            Ok(Ok(())) => Ok(()),
            Ok(Err(e)) => Err(format!("server: {e}")),
            Err(_) => Err("server thread panicked".into()),
        }
    }
}

impl Drop for Stack {
    fn drop(&mut self) {
        let _ = self.shutdown();
    }
}

/// A keep-alive client that reconnects the way a well-behaved client of
/// this server must: after `max_requests_per_conn` answers and after any
/// error status (the server closes both).
pub struct Client {
    addr: SocketAddr,
    conn: Option<Conn>,
    served: usize,
    max: usize,
}

impl Client {
    pub fn new(addr: SocketAddr) -> Client {
        Client {
            addr,
            conn: None,
            served: 0,
            max: ServeConfig::default().max_requests_per_conn,
        }
    }

    pub fn send(
        &mut self,
        method: &str,
        target: &str,
        body: Option<&str>,
    ) -> std::io::Result<(u16, String)> {
        if self.conn.is_none() || self.served >= self.max {
            self.conn = Some(Conn::open(self.addr)?);
            self.served = 0;
        }
        let conn = self.conn.as_mut().expect("connection opened above");
        match conn.send(method, target, body) {
            Ok((status, reply)) => {
                self.served += 1;
                if status >= 400 {
                    self.conn = None;
                }
                Ok((status, reply))
            }
            Err(e) => {
                self.conn = None;
                Err(e)
            }
        }
    }
}
