//! The stack under test: `TuningService::recover` on a fresh store
//! directory (default `ServiceConfig`), optionally behind `Gateway::start`
//! with API-key auth on and quotas far above any offered rate.

use crate::gen::{tenant_name, Plan};
use crowdtune_gateway::{AuthConfig, Gateway, GatewayConfig, JobRequestWire, QuotaConfig};
use crowdtune_serve::{JobRequest, ServedPlan, ServiceConfig, TuningService};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// Largest job the gateway accepts, in repetition slots (its default).
pub const MAX_JOB_SLOTS: u64 = 1_000_000;

/// Scratch space under the benchmark's own directory.
pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// A fresh, process-unique directory for one store.
pub fn fresh_dir(label: &str) -> PathBuf {
    let dir = out_dir()
        .join("work")
        .join(format!("{}-{label}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create store directory");
    dir
}

pub fn key_map(keys: &[String]) -> HashMap<String, String> {
    keys.iter()
        .enumerate()
        .map(|(i, key)| (key.clone(), tenant_name(i)))
        .collect()
}

pub fn gateway_config(keys: &[String]) -> GatewayConfig {
    GatewayConfig {
        auth: AuthConfig {
            keys: key_map(keys),
            allow_body_tenant: false,
        },
        quota: Some(QuotaConfig {
            requests_per_sec: 1e9,
            burst: 1e9,
        }),
        ..GatewayConfig::default()
    }
}

/// A wire job as the named tenant would have it resolved.
pub fn request_for(wire: &JobRequestWire, tenant: &str) -> JobRequest {
    let mut wire = wire.clone();
    wire.tenant = tenant.to_owned();
    wire.to_request(MAX_JOB_SLOTS)
        .expect("generated jobs are valid")
}

/// One warm-up submit as the service answered it.
pub struct Warmed {
    pub wire: JobRequestWire,
    pub served: ServedPlan,
    pub submit_ns: u64,
}

pub struct Stack {
    pub service: Arc<TuningService>,
    pub gateway: Option<Gateway>,
    pub dir: PathBuf,
    pub warmed: Vec<Warmed>,
}

impl Stack {
    /// Opens the store, starts the gateway (if asked) and solves the plan's
    /// warm-up jobs, one at a time.
    pub fn boot(plan: &Plan, dir: PathBuf, with_gateway: bool) -> Stack {
        let service = Arc::new(
            TuningService::recover(ServiceConfig::default(), &dir).expect("open the plan store"),
        );
        let gateway = with_gateway.then(|| {
            Gateway::start(service.clone(), "127.0.0.1:0", gateway_config(&plan.keys))
                .expect("bind the gateway")
        });
        let warmed = plan
            .warmup
            .iter()
            .map(|wire| {
                let started = Instant::now();
                let served = service
                    .submit(request_for(wire, &wire.tenant))
                    .and_then(|handle| handle.wait())
                    .expect("warm-up job solves");
                Warmed {
                    wire: wire.clone(),
                    served,
                    submit_ns: started.elapsed().as_nanos() as u64,
                }
            })
            .collect();
        Stack {
            service,
            gateway,
            dir,
            warmed,
        }
    }

    pub fn addr(&self) -> std::net::SocketAddr {
        self.gateway
            .as_ref()
            .expect("stack has a gateway")
            .local_addr()
    }

    /// Drains the gateway, joins the service's threads and removes the
    /// store directory.
    pub fn shutdown(self) {
        if let Some(gateway) = self.gateway {
            gateway.shutdown();
        }
        match Arc::try_unwrap(self.service) {
            Ok(service) => service.shutdown(),
            Err(service) => drop(service),
        }
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// Bytes of every file under `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|entry| match entry.metadata() {
            Ok(meta) if meta.is_dir() => dir_bytes(&entry.path()),
            Ok(meta) => meta.len(),
            Err(_) => 0,
        })
        .sum()
}

/// Child-process mode for the traced run: boot a gateway stack, print its
/// port, serve until stdin closes.
pub fn serve_child(plan: &Plan, label: &str) {
    use std::io::{Read, Write};
    let stack = Stack::boot(plan, fresh_dir(label), true);
    let mut out = std::io::stdout();
    writeln!(out, "PORT {}", stack.addr().port()).expect("report port");
    out.flush().expect("flush port");
    let mut sink = Vec::new();
    let _ = std::io::stdin().read_to_end(&mut sink);
    stack.shutdown();
}
