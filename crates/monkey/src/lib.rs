//! # dydroid-monkey
//!
//! A Monkey-like UI/Application exerciser for the simulated Android
//! runtime. The paper drives each app with the Android Monkey fuzzer on
//! the instrumented device; this crate does the same against
//! [`dydroid_avm`]: launch the app, then fire pseudo-random UI callback
//! events until the budget is exhausted or the app dies.
//!
//! Determinism: the event sequence is a pure function of the seed, so
//! every measurement table regenerates identically run-to-run.
//!
//! ## Example
//!
//! ```
//! use dydroid_avm::{Device, DeviceConfig};
//! use dydroid_dex::{Apk, Component, DexFile, Manifest};
//! use dydroid_monkey::{ExerciseOutcome, Monkey, MonkeyConfig};
//!
//! let mut device = Device::new(DeviceConfig::default());
//! let mut manifest = Manifest::new("com.example.app");
//! manifest.components.push(Component::main_activity("com.example.app.Main"));
//! let mut dex = dydroid_dex::builder::DexBuilder::new();
//! dex.class("com.example.app.Main", "android.app.Activity")
//!     .method("onCreate", "()V", dydroid_dex::AccessFlags::PUBLIC)
//!     .ret_void();
//! device.install(&Apk::build(manifest, dex.build()).to_bytes())?;
//!
//! let mut monkey = Monkey::new(MonkeyConfig::default());
//! let outcome = monkey.exercise(&mut device, "com.example.app")?;
//! assert!(matches!(outcome, ExerciseOutcome::Exercised { crashed: false, .. }));
//! # Ok::<(), dydroid_avm::AvmError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use dydroid_avm::{AvmError, Device};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Conversion rate of the deterministic virtual clock: one virtual
/// millisecond per thousand retired interpreter instructions. The
/// virtual clock is the only clock the deadline watchdog reads, so
/// whether an app trips its deadline depends on the app and the
/// configuration alone, never on host speed or load.
pub const VIRTUAL_INSTRUCTIONS_PER_MS: u64 = 1_000;

/// Fuzzer configuration.
#[derive(Debug, Clone)]
pub struct MonkeyConfig {
    /// PRNG seed; the whole event sequence derives from it.
    pub seed: u64,
    /// Maximum number of UI events to inject after launch.
    pub event_budget: usize,
    /// Per-app deadline in virtual milliseconds (`None` = unlimited),
    /// charged as `instructions_retired / VIRTUAL_INSTRUCTIONS_PER_MS`;
    /// the remaining budget also caps each callback's interpreter fuel.
    pub deadline_ms: Option<u64>,
}

impl Default for MonkeyConfig {
    fn default() -> Self {
        MonkeyConfig {
            seed: 0x00D1_D501,
            event_budget: 50,
            deadline_ms: None,
        }
    }
}

/// The result of exercising one app.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExerciseOutcome {
    /// The app declares no launchable activity — the Monkey cannot drive
    /// it (Table II's "No activity" row).
    NoActivity,
    /// The app was launched and fuzzed.
    Exercised {
        /// UI events fired (including lifecycle re-entries).
        events_fired: usize,
        /// Whether the app crashed at any point.
        crashed: bool,
    },
    /// The per-app deadline elapsed before the event budget did. The app
    /// is abandoned; the pipeline classifies this as a harness failure.
    DeadlineExceeded {
        /// UI events fired before the watchdog tripped.
        events_fired: usize,
        /// Virtual milliseconds charged (see [`virtual_ms`]).
        elapsed_ms: u64,
    },
}

impl ExerciseOutcome {
    /// Whether the app was successfully driven without crashing.
    pub fn is_clean(&self) -> bool {
        matches!(self, ExerciseOutcome::Exercised { crashed: false, .. })
    }
}

/// The UI exerciser.
#[derive(Debug)]
pub struct Monkey {
    rng: ChaCha8Rng,
    config: MonkeyConfig,
}

impl Monkey {
    /// Creates a Monkey from a configuration.
    pub fn new(config: MonkeyConfig) -> Self {
        Monkey {
            rng: ChaCha8Rng::seed_from_u64(config.seed),
            config,
        }
    }

    /// Launches and exercises `pkg` on `device`, returning the outcome.
    /// Crashes inside the app are contained and reported, never
    /// propagated — the harness must survive 46K hostile apps.
    ///
    /// # Errors
    ///
    /// Returns [`AvmError::NotInstalled`] for unknown packages; in-app
    /// failures are part of the [`ExerciseOutcome`], not errors.
    pub fn exercise(
        &mut self,
        device: &mut Device,
        pkg: &str,
    ) -> Result<ExerciseOutcome, AvmError> {
        let manifest = device
            .app(pkg)
            .ok_or_else(|| AvmError::NotInstalled(pkg.to_string()))?
            .manifest
            .clone();
        if manifest.main_activity().is_none() {
            return Ok(ExerciseOutcome::NoActivity);
        }

        let mut process = device.launch(pkg)?;
        if let Some(deadline_ms) = self.config.deadline_ms {
            // Launch itself may have burned the whole budget (e.g. a
            // spinning Application/onCreate).
            let elapsed = virtual_ms(process.instructions_retired);
            if elapsed >= deadline_ms {
                return Ok(ExerciseOutcome::DeadlineExceeded {
                    events_fired: 0,
                    elapsed_ms: elapsed,
                });
            }
        }
        if !process.alive {
            return Ok(ExerciseOutcome::Exercised {
                events_fired: 0,
                crashed: true,
            });
        }

        // The fuzz loop with the deadline watchdog. Between events the
        // watchdog charges the virtual time retired so far against the
        // deadline; each callback's interpreter fuel is additionally
        // capped by the remaining budget so one callback cannot overshoot
        // it. Fuel exhaustion under a deadline-derived cap counts as a
        // deadline hit, not an app crash.
        let default_fuel = dydroid_avm::interp::DEFAULT_FUEL;
        let mut fired = 0;
        for _ in 0..self.config.event_budget {
            if !process.alive {
                break;
            }
            let mut fuel = default_fuel;
            if let Some(deadline_ms) = self.config.deadline_ms {
                let elapsed = virtual_ms(process.instructions_retired);
                if elapsed >= deadline_ms {
                    return Ok(ExerciseOutcome::DeadlineExceeded {
                        events_fired: fired,
                        elapsed_ms: elapsed,
                    });
                }
                let remaining_instr =
                    (deadline_ms - elapsed).saturating_mul(VIRTUAL_INSTRUCTIONS_PER_MS);
                fuel = default_fuel.min(remaining_instr.max(1));
            }
            // Callbacks can change as DCL loads new classes: re-enumerate.
            let callbacks = process.ui_callbacks(&manifest);
            if callbacks.is_empty() {
                break;
            }
            let (class, method) = callbacks[self.rng.gen_range(0..callbacks.len())].clone();
            fired += 1;
            // run_callback records crashes in the device log itself.
            let result = process.run_callback_with_fuel(device, &class, &method, fuel);
            if matches!(result, Err(dydroid_avm::Exec::OutOfFuel)) && fuel < default_fuel {
                // The callback only ran out because the deadline capped
                // its fuel: a watchdog kill, not an app bug.
                return Ok(ExerciseOutcome::DeadlineExceeded {
                    events_fired: fired,
                    elapsed_ms: virtual_ms(process.instructions_retired)
                        .max(self.config.deadline_ms.unwrap_or(0)),
                });
            }
        }
        Ok(ExerciseOutcome::Exercised {
            events_fired: fired,
            crashed: !process.alive,
        })
    }

    /// The seed in use (for reporting).
    pub fn seed(&self) -> u64 {
        self.config.seed
    }
}

/// Converts retired interpreter instructions to deterministic
/// virtual-clock milliseconds (the unit the deadline watchdog charges).
pub fn virtual_ms(instructions: u64) -> u64 {
    instructions / VIRTUAL_INSTRUCTIONS_PER_MS
}

/// Converts retired interpreter instructions to deterministic
/// virtual-clock *microseconds* — the unit the telemetry layer
/// accumulates per app, fine-grained enough that a short exercise run
/// (well under `VIRTUAL_INSTRUCTIONS_PER_MS` instructions) still
/// charges a nonzero amount instead of truncating to zero.
pub fn virtual_us(instructions: u64) -> u64 {
    instructions.saturating_mul(1_000) / VIRTUAL_INSTRUCTIONS_PER_MS
}

#[cfg(test)]
mod tests {
    use super::*;
    use dydroid_avm::DeviceConfig;
    use dydroid_dex::builder::DexBuilder;
    use dydroid_dex::{AccessFlags, Apk, Component, Manifest, MethodRef};

    fn install(device: &mut Device, pkg: &str, build: impl FnOnce(&mut DexBuilder)) {
        let mut manifest = Manifest::new(pkg);
        manifest
            .components
            .push(Component::main_activity(format!("{pkg}.Main")));
        let mut b = DexBuilder::new();
        build(&mut b);
        device
            .install(&Apk::build(manifest, b.build()).to_bytes())
            .unwrap();
    }

    #[test]
    fn no_activity_detected() {
        let mut device = Device::new(DeviceConfig::default());
        let manifest = Manifest::new("com.no.activity");
        device
            .install(&Apk::build(manifest, dydroid_dex::DexFile::new()).to_bytes())
            .unwrap();
        let mut monkey = Monkey::new(MonkeyConfig::default());
        assert_eq!(
            monkey.exercise(&mut device, "com.no.activity").unwrap(),
            ExerciseOutcome::NoActivity
        );
    }

    #[test]
    fn clean_app_exercised() {
        let mut device = Device::new(DeviceConfig::default());
        install(&mut device, "com.a", |b| {
            let c = b.class("com.a.Main", "android.app.Activity");
            c.method("onCreate", "()V", AccessFlags::PUBLIC).ret_void();
            c.method("onClickRefresh", "()V", AccessFlags::PUBLIC)
                .ret_void();
        });
        let mut monkey = Monkey::new(MonkeyConfig {
            seed: 1,
            event_budget: 10,
            deadline_ms: None,
        });
        let outcome = monkey.exercise(&mut device, "com.a").unwrap();
        assert_eq!(
            outcome,
            ExerciseOutcome::Exercised {
                events_fired: 10,
                crashed: false
            }
        );
        assert!(outcome.is_clean());
    }

    #[test]
    fn crash_on_launch_reported() {
        let mut device = Device::new(DeviceConfig::default());
        install(&mut device, "com.crash", |b| {
            let c = b.class("com.crash.Main", "android.app.Activity");
            let m = c.method("onCreate", "()V", AccessFlags::PUBLIC);
            m.const_str(0, "developer bug");
            m.throw(0);
        });
        let mut monkey = Monkey::new(MonkeyConfig::default());
        let outcome = monkey.exercise(&mut device, "com.crash").unwrap();
        assert_eq!(
            outcome,
            ExerciseOutcome::Exercised {
                events_fired: 0,
                crashed: true
            }
        );
        assert!(device.log.crashed("com.crash"));
    }

    #[test]
    fn crash_in_callback_stops_fuzzing() {
        let mut device = Device::new(DeviceConfig::default());
        install(&mut device, "com.cb", |b| {
            let c = b.class("com.cb.Main", "android.app.Activity");
            c.method("onCreate", "()V", AccessFlags::PUBLIC).ret_void();
            let m = c.method("onClickBoom", "()V", AccessFlags::PUBLIC);
            m.const_str(0, "boom");
            m.throw(0);
        });
        let mut monkey = Monkey::new(MonkeyConfig {
            seed: 2,
            event_budget: 100,
            deadline_ms: None,
        });
        let outcome = monkey.exercise(&mut device, "com.cb").unwrap();
        assert_eq!(
            outcome,
            ExerciseOutcome::Exercised {
                events_fired: 1,
                crashed: true
            }
        );
    }

    #[test]
    fn deterministic_given_seed() {
        // Two devices, same seed → identical event logs.
        let run = |seed: u64| {
            let mut device = Device::new(DeviceConfig::default());
            install(&mut device, "com.det", |b| {
                let c = b.class("com.det.Main", "android.app.Activity");
                c.method("onCreate", "()V", AccessFlags::PUBLIC).ret_void();
                // Two callbacks that record different APIs.
                let m = c.method("onClickA", "()V", AccessFlags::PUBLIC);
                m.invoke_static(
                    MethodRef::new(
                        "android.telephony.TelephonyManager",
                        "getDeviceId",
                        "()Ljava/lang/String;",
                    ),
                    vec![],
                );
                m.ret_void();
                let m = c.method("onClickB", "()V", AccessFlags::PUBLIC);
                m.invoke_static(
                    MethodRef::new(
                        "android.accounts.AccountManager",
                        "getAccounts",
                        "()Ljava/lang/String;",
                    ),
                    vec![],
                );
                m.ret_void();
            });
            let mut monkey = Monkey::new(MonkeyConfig {
                seed,
                event_budget: 20,
                deadline_ms: None,
            });
            monkey.exercise(&mut device, "com.det").unwrap();
            format!("{:?}", device.log.events())
        };
        assert_eq!(run(42), run(42));
        assert_ne!(run(42), run(43), "different seeds should differ");
    }

    fn install_spinner(device: &mut Device, pkg: &str, iterations: i64) {
        install(device, pkg, |b| {
            let c = b.class(format!("{pkg}.Main"), "android.app.Activity");
            c.method("onCreate", "()V", AccessFlags::PUBLIC).ret_void();
            let m = c.method("onSpin", "()V", AccessFlags::PUBLIC);
            m.registers(4);
            m.const_int(0, 0);
            m.const_int(1, iterations);
            m.const_int(2, 1);
            let head = m.label();
            m.bind(head);
            m.binop(dydroid_dex::BinOp::Add, 0, 0, 2);
            m.if_cmp(dydroid_dex::CmpKind::Lt, 0, 1, head);
            m.ret_void();
        });
    }

    #[test]
    fn deadline_trips_on_spinning_app() {
        let mut device = Device::new(DeviceConfig::default());
        // Each onSpin retires ~120k instructions = 120 virtual ms.
        install_spinner(&mut device, "com.spin", 60_000);
        let mut monkey = Monkey::new(MonkeyConfig {
            seed: 5,
            event_budget: 50,
            deadline_ms: Some(200),
        });
        let outcome = monkey.exercise(&mut device, "com.spin").unwrap();
        assert!(
            matches!(outcome, ExerciseOutcome::DeadlineExceeded { .. }),
            "expected deadline, got {outcome:?}"
        );
    }

    #[test]
    fn generous_deadline_leaves_apps_alone() {
        let mut device = Device::new(DeviceConfig::default());
        install_spinner(&mut device, "com.ok", 50);
        let mut monkey = Monkey::new(MonkeyConfig {
            seed: 5,
            event_budget: 10,
            deadline_ms: Some(30_000),
        });
        let outcome = monkey.exercise(&mut device, "com.ok").unwrap();
        assert_eq!(
            outcome,
            ExerciseOutcome::Exercised {
                events_fired: 10,
                crashed: false
            }
        );
    }

    #[test]
    fn unknown_package_is_error() {
        let mut device = Device::new(DeviceConfig::default());
        let mut monkey = Monkey::new(MonkeyConfig::default());
        assert!(matches!(
            monkey.exercise(&mut device, "ghost"),
            Err(AvmError::NotInstalled(_))
        ));
    }

    #[test]
    fn no_callbacks_ends_early() {
        let mut device = Device::new(DeviceConfig::default());
        install(&mut device, "com.min", |b| {
            let c = b.class("com.min.Main", "android.app.Activity");
            c.method("onCreate", "()V", AccessFlags::PUBLIC).ret_void();
        });
        let mut monkey = Monkey::new(MonkeyConfig::default());
        let outcome = monkey.exercise(&mut device, "com.min").unwrap();
        assert_eq!(
            outcome,
            ExerciseOutcome::Exercised {
                events_fired: 0,
                crashed: false
            }
        );
    }
}
