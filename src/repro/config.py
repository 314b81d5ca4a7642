"""Configuration objects for the neural fault injection pipeline.

Configuration is expressed as plain dataclasses with validation in
``__post_init__`` so that mistakes surface at construction time rather than
deep inside a training loop or an injection campaign.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, asdict
from typing import Any, Mapping

from .errors import ConfigurationError


def _from_mapping(klass: type, value: Any, section: str) -> Any:
    """Build the ``klass`` config of one section, naming any unknown field."""
    if not isinstance(value, Mapping):
        raise ConfigurationError(f"{section} section must be a mapping")
    unknown = sorted(set(value) - {item.name for item in fields(klass)})
    if unknown:
        raise ConfigurationError(f"unknown {section} field(s): {', '.join(map(str, unknown))}")
    return klass(**value)


@dataclass
class ModelConfig:
    """Hyper-parameters of the fault-generation policy network.

    ``encoder_cache_size``, ``render_cache_size``, and
    ``compiled_cache_size`` bound the prompt-keyed memoization caches of
    :class:`~repro.llm.features.FeatureEncoder`,
    :class:`~repro.llm.grammar.CodeGrammar`, and
    :class:`~repro.llm.compiled_grammar.GrammarCompiler` (LRU entries; ``0``
    disables a cache entirely, which the benchmarks use for the uncached
    generator their per-sample reference loops run on).
    """

    embedding_dim: int = 32
    hidden_dim: int = 64
    feature_dim: int = 96
    learning_rate: float = 0.05
    seed: int = 7
    temperature: float = 1.0
    top_k: int | None = None
    top_p: float | None = None
    constrain_to_spec: bool = True
    spec_constraint_threshold: float = 0.3
    encoder_cache_size: int = 2048
    render_cache_size: int = 1024
    compiled_cache_size: int = 512

    def __post_init__(self) -> None:
        if not (0.0 <= self.spec_constraint_threshold <= 1.0):
            raise ConfigurationError("spec_constraint_threshold must be in [0, 1]")
        if self.embedding_dim <= 0 or self.hidden_dim <= 0 or self.feature_dim <= 0:
            raise ConfigurationError("model dimensions must be positive")
        if self.learning_rate <= 0:
            raise ConfigurationError("learning_rate must be positive")
        if self.temperature <= 0:
            raise ConfigurationError("temperature must be positive")
        if self.top_k is not None and self.top_k <= 0:
            raise ConfigurationError("top_k must be positive when set")
        if self.top_p is not None and not (0.0 < self.top_p <= 1.0):
            raise ConfigurationError("top_p must be in (0, 1] when set")
        if (
            self.encoder_cache_size < 0
            or self.render_cache_size < 0
            or self.compiled_cache_size < 0
        ):
            raise ConfigurationError("cache sizes must be non-negative (0 disables)")

    def to_dict(self) -> dict[str, Any]:
        return asdict(self)


@dataclass
class SFTConfig:
    """Supervised fine-tuning schedule."""

    epochs: int = 5
    batch_size: int = 16
    learning_rate: float = 0.05
    shuffle: bool = True
    seed: int = 11

    def __post_init__(self) -> None:
        if self.epochs <= 0:
            raise ConfigurationError("epochs must be positive")
        if self.batch_size <= 0:
            raise ConfigurationError("batch_size must be positive")
        if self.learning_rate <= 0:
            raise ConfigurationError("learning_rate must be positive")

    def to_dict(self) -> dict[str, Any]:
        return asdict(self)


@dataclass
class RLHFConfig:
    """Reinforcement learning from human feedback schedule."""

    iterations: int = 4
    candidates_per_iteration: int = 4
    reward_learning_rate: float = 0.1
    reward_epochs: int = 30
    policy_learning_rate: float = 0.05
    kl_beta: float = 0.1
    baseline_momentum: float = 0.9
    seed: int = 13

    def __post_init__(self) -> None:
        if self.iterations <= 0:
            raise ConfigurationError("iterations must be positive")
        if self.candidates_per_iteration <= 0:
            raise ConfigurationError("candidates_per_iteration must be positive")
        if self.kl_beta < 0:
            raise ConfigurationError("kl_beta must be non-negative")
        if not (0.0 <= self.baseline_momentum < 1.0):
            raise ConfigurationError("baseline_momentum must be in [0, 1)")

    def to_dict(self) -> dict[str, Any]:
        return asdict(self)


@dataclass
class IntegrationConfig:
    """Sandboxed integration and testing behaviour."""

    test_timeout_seconds: float = 10.0
    workload_iterations: int = 25
    capture_output: bool = True

    def __post_init__(self) -> None:
        if self.test_timeout_seconds <= 0:
            raise ConfigurationError("test_timeout_seconds must be positive")
        if self.workload_iterations <= 0:
            raise ConfigurationError("workload_iterations must be positive")

    def to_dict(self) -> dict[str, Any]:
        return asdict(self)


#: Execution modes understood by the sandbox runner and campaign orchestrator.
EXECUTION_MODES = ("inprocess", "subprocess", "pool", "distributed")


@dataclass
class DistributedConfig:
    """The distributed execution plane (:mod:`repro.distributed`).

    The coordinator binds ``host:port`` (``port=0`` picks an ephemeral port,
    published on the pool's ``address``) and accepts remote sandbox workers
    over TCP.  With ``spawn_workers`` (the default) the first distributed
    batch also spawns a localhost fleet of ``workers`` processes (``0``
    defers to ``ExecutionConfig.max_workers``), each advertising
    ``worker_capacity`` inner sandbox slots; external workers started with
    ``python -m repro worker --connect HOST:PORT`` may join at any time.

    ``lease_size`` bounds how many tasks ride one lease (``0`` defers to the
    worker's advertised capacity).  A worker that misses heartbeats for
    ``heartbeat_timeout_seconds`` — workers beat every
    ``heartbeat_interval_seconds`` while executing — is declared lost and its
    lease requeued under the :class:`ResilienceConfig` retry budget.  When no
    workers at all are connected for ``worker_wait_seconds`` during an active
    batch, outstanding tasks fail with error payloads instead of hanging.
    """

    host: str = "127.0.0.1"
    port: int = 0
    spawn_workers: bool = True
    workers: int = 0
    worker_capacity: int = 1
    lease_size: int = 0
    heartbeat_interval_seconds: float = 0.25
    heartbeat_timeout_seconds: float = 5.0
    worker_wait_seconds: float = 30.0

    def __post_init__(self) -> None:
        if not isinstance(self.host, str) or not self.host:
            raise ConfigurationError("distributed host must be a non-empty string")
        if not (0 <= self.port <= 65535):
            raise ConfigurationError("distributed port must be in [0, 65535] (0 = ephemeral)")
        if self.workers < 0:
            raise ConfigurationError("distributed workers must be non-negative (0 = auto)")
        if self.worker_capacity <= 0:
            raise ConfigurationError("worker_capacity must be positive")
        if self.lease_size < 0:
            raise ConfigurationError("lease_size must be non-negative (0 = worker capacity)")
        if self.heartbeat_interval_seconds <= 0:
            raise ConfigurationError("heartbeat_interval_seconds must be positive")
        if self.heartbeat_timeout_seconds <= self.heartbeat_interval_seconds:
            raise ConfigurationError(
                "heartbeat_timeout_seconds must exceed heartbeat_interval_seconds"
            )
        if self.worker_wait_seconds <= 0:
            raise ConfigurationError("worker_wait_seconds must be positive")

    def to_dict(self) -> dict[str, Any]:
        return asdict(self)


@dataclass
class ExecutionConfig:
    """How campaign experiments are scheduled across workers.

    ``max_workers`` is a request, not a guarantee: pools are capped from
    ``os.cpu_count()`` (see :func:`repro.execution.resolve_workers`).
    ``distributed`` configures the machine-spanning plane used when a
    request (or ``default_mode``) selects ``"distributed"``.
    """

    max_workers: int | None = None
    batch_size: int = 32
    default_mode: str = "inprocess"
    distributed: DistributedConfig = field(default_factory=DistributedConfig)

    def __post_init__(self) -> None:
        if isinstance(self.distributed, Mapping):
            self.distributed = _from_mapping(DistributedConfig, self.distributed, "execution.distributed")
        if self.max_workers is not None and self.max_workers <= 0:
            raise ConfigurationError("max_workers must be positive when set")
        if self.batch_size <= 0:
            raise ConfigurationError("batch_size must be positive")
        if self.default_mode not in EXECUTION_MODES:
            raise ConfigurationError(
                f"default_mode must be one of {EXECUTION_MODES}, got {self.default_mode!r}"
            )

    def resolved_workers(self, requested: int | None = None) -> int:
        """The worker count actually used, capped by the machine's CPU count."""
        from .execution import resolve_workers

        return resolve_workers(requested if requested is not None else self.max_workers)

    def to_dict(self) -> dict[str, Any]:
        return asdict(self)


@dataclass
class DatasetConfig:
    """Dataset generation parameters (Section IV-1).

    When ``validate_candidates`` is set, every applied fault candidate is
    executed against its target through the shared sandbox runner (one pooled
    batch per target, scheduled per :class:`ExecutionConfig`) and candidates
    whose mutated module cannot even be loaded are dropped from the dataset.
    The keep/discard decision only depends on module load success, so one
    workload iteration (the default) is enough; raise
    ``validation_iterations`` only to make the validation run double as a
    deeper workload smoke test.  Validation always runs in a
    timeout-protected sandbox: an ``inprocess`` execution config is promoted
    to ``subprocess``, because arbitrary mutants can hang and in-process
    execution has no timeout.
    """

    samples_per_target: int = 50
    seed: int = 17
    max_faults_per_function: int = 3
    include_descriptions: bool = True
    validate_candidates: bool = False
    validation_iterations: int = 1
    validation_timeout_seconds: float = 5.0

    def __post_init__(self) -> None:
        if self.samples_per_target <= 0:
            raise ConfigurationError("samples_per_target must be positive")
        if self.max_faults_per_function <= 0:
            raise ConfigurationError("max_faults_per_function must be positive")
        if self.validation_iterations <= 0:
            raise ConfigurationError("validation_iterations must be positive")
        if self.validation_timeout_seconds <= 0:
            raise ConfigurationError("validation_timeout_seconds must be positive")

    def to_dict(self) -> dict[str, Any]:
        return asdict(self)


@dataclass
class ChaosConfig:
    """Self-chaos injection into the library's own execution plane.

    When ``enabled``, pool workers deterministically misbehave — crash
    mid-task (``worker_crash_probability``), stall before executing
    (``task_delay_probability`` / ``task_delay_seconds``), or drop the
    computed result on the floor (``drop_result_probability``) — so the
    supervision layer (requeue-on-death, retry budgets, quarantine) is
    exercised by the library's own test suite rather than trusted on faith.

    Decisions are pure functions of ``(seed, task key, attempt)`` and only
    ever fire on a task's first attempt, so chaotic campaigns always
    terminate and — because the workload itself is untouched — produce
    byte-identical results to fault-free runs (the differential suite in
    ``tests/test_chaos_differential.py`` pins this).
    """

    enabled: bool = False
    seed: int = 31
    worker_crash_probability: float = 0.0
    task_delay_probability: float = 0.0
    task_delay_seconds: float = 0.05
    drop_result_probability: float = 0.0

    def __post_init__(self) -> None:
        for name in ("worker_crash_probability", "task_delay_probability", "drop_result_probability"):
            value = getattr(self, name)
            if not (0.0 <= value <= 1.0):
                raise ConfigurationError(f"{name} must be in [0, 1]")
        if self.task_delay_seconds < 0:
            raise ConfigurationError("task_delay_seconds must be non-negative")

    def any_faults(self) -> bool:
        """Whether this configuration can actually inject anything."""
        return self.enabled and (
            self.worker_crash_probability > 0
            or self.task_delay_probability > 0
            or self.drop_result_probability > 0
        )

    def to_dict(self) -> dict[str, Any]:
        return asdict(self)


@dataclass
class ResilienceConfig:
    """Failure-handling behaviour of the serving and execution planes.

    Both pooled planes always supervise their workers through one state
    machine, :class:`~repro.execution.supervision.SupervisedBatch`:
    ``task_retry_budget`` bounds how often one task may be re-executed after
    its worker died, and ``quarantine_threshold`` is how many worker deaths
    one task may be charged with before it is failed individually instead of
    recycling the pool forever.  The retry fields parameterize the
    deterministic exponential-backoff :class:`~repro.resilience.RetryPolicy`
    wrapped around sandbox execution; the breaker fields parameterize the
    per-(target, mode) :class:`~repro.resilience.CircuitBreaker`.  ``chaos``
    configures the self-chaos harness (:class:`ChaosConfig`).
    """

    task_retry_budget: int = 3
    quarantine_threshold: int = 2
    retry_max_attempts: int = 3
    retry_base_delay_seconds: float = 0.02
    retry_max_delay_seconds: float = 1.0
    retry_jitter: float = 0.25
    retry_seed: int = 29
    breaker_failure_threshold: int = 5
    breaker_recovery_seconds: float = 5.0
    breaker_half_open_calls: int = 1
    chaos: ChaosConfig = field(default_factory=ChaosConfig)

    def __post_init__(self) -> None:
        if isinstance(self.chaos, Mapping):
            self.chaos = _from_mapping(ChaosConfig, self.chaos, "resilience.chaos")
        if self.task_retry_budget < 0:
            raise ConfigurationError("task_retry_budget must be non-negative")
        if self.quarantine_threshold <= 0:
            raise ConfigurationError("quarantine_threshold must be positive")
        if self.retry_max_attempts <= 0:
            raise ConfigurationError("retry_max_attempts must be positive")
        if self.retry_base_delay_seconds < 0 or self.retry_max_delay_seconds < 0:
            raise ConfigurationError("retry delays must be non-negative")
        if not (0.0 <= self.retry_jitter <= 1.0):
            raise ConfigurationError("retry_jitter must be in [0, 1]")
        if self.breaker_failure_threshold <= 0:
            raise ConfigurationError("breaker_failure_threshold must be positive")
        if self.breaker_recovery_seconds < 0:
            raise ConfigurationError("breaker_recovery_seconds must be non-negative")
        if self.breaker_half_open_calls <= 0:
            raise ConfigurationError("breaker_half_open_calls must be positive")

    def to_dict(self) -> dict[str, Any]:
        return asdict(self)


@dataclass
class EngineConfig:
    """Serving behaviour of the :class:`~repro.api.FaultInjectionEngine`.

    The engine's continuous-batching scheduler drains up to ``max_batch_size``
    queued :class:`~repro.api.GenerateRequest` objects per dispatch (``None``
    defers to ``ExecutionConfig.batch_size``) into one batched forward pass.
    It never waits for a batch to fill: requests that arrive while a batch
    runs form the next one.  ``extract_cache_size``
    bounds the description-hash LRU cache of the shared
    :class:`~repro.nlp.FaultSpecExtractor` (``0`` disables it).
    """

    max_batch_size: int | None = None
    extract_cache_size: int = 2048

    def __post_init__(self) -> None:
        if self.max_batch_size is not None and self.max_batch_size <= 0:
            raise ConfigurationError("max_batch_size must be positive when set")
        if self.extract_cache_size < 0:
            raise ConfigurationError("extract_cache_size must be non-negative (0 disables)")

    def resolved_batch_size(self, execution: "ExecutionConfig") -> int:
        """The scheduler batch bound actually used for one dispatch."""
        return self.max_batch_size if self.max_batch_size is not None else execution.batch_size

    def to_dict(self) -> dict[str, Any]:
        return asdict(self)


@dataclass
class ServerConfig:
    """Behaviour of the HTTP/JSON serving front-end (:mod:`repro.server`).

    ``request_retention`` bounds how many *completed* async envelopes the
    server keeps for ``GET /v1/requests/<id>`` polling — oldest finished
    tickets are evicted first, pending tickets are never evicted.
    ``max_body_bytes`` caps accepted request bodies (HTTP 413 beyond it);
    ``drain_timeout_seconds`` bounds how long a graceful shutdown waits for
    queued async tickets to resolve before closing the engine anyway.
    ``max_queue_depth`` is the admission-control bound: request submissions
    arriving while the engine scheduler already holds that many queued
    tickets are shed with HTTP 429 and a ``Retry-After`` of
    ``retry_after_seconds`` (``0`` disables shedding).  The server runs one
    engine; its sandbox slots come from ``ExecutionConfig.max_workers``.
    """

    host: str = "127.0.0.1"
    port: int = 8080
    request_retention: int = 256
    max_body_bytes: int = 1 << 20
    drain_timeout_seconds: float = 30.0
    max_queue_depth: int = 128
    retry_after_seconds: float = 1.0

    #: serve CLI flag -> ServerConfig field consumed by :meth:`from_args`.
    _ARG_FIELDS = (
        ("host", "host"),
        ("port", "port"),
        ("max_queue_depth", "max_queue_depth"),
    )

    def __post_init__(self) -> None:
        if not isinstance(self.host, str) or not self.host:
            raise ConfigurationError("host must be a non-empty string")
        if not (0 <= self.port <= 65535):
            raise ConfigurationError("port must be in [0, 65535] (0 = ephemeral)")
        if self.request_retention <= 0:
            raise ConfigurationError("request_retention must be positive")
        if self.max_body_bytes <= 0:
            raise ConfigurationError("max_body_bytes must be positive")
        if self.drain_timeout_seconds <= 0:
            raise ConfigurationError("drain_timeout_seconds must be positive")
        if self.max_queue_depth < 0:
            raise ConfigurationError("max_queue_depth must be non-negative (0 disables shedding)")
        if self.retry_after_seconds <= 0:
            raise ConfigurationError("retry_after_seconds must be positive")

    @classmethod
    def from_args(cls, args: Any, base: "ServerConfig | None" = None) -> "ServerConfig":
        """The single validated entry point from ``serve`` CLI flags.

        The individual ``--host``/``--port``/``--max-queue-depth`` flags are
        aliases for the fields of this dataclass; they are applied here in
        one place so every flag combination goes through ``__post_init__``
        validation.  ``args`` may be an ``argparse.Namespace`` or any object
        with the flag attributes (missing/``None`` attributes keep the base
        value).

        Args:
            args: Parsed CLI arguments (attributes named after the flags).
            base: Configuration the flags override (default: ``ServerConfig()``).

        Returns:
            A validated configuration with the overrides applied.
        """
        config = base if base is not None else cls()
        overrides = {}
        for attr, field_name in cls._ARG_FIELDS:
            value = getattr(args, attr, None)
            if value is not None:
                overrides[field_name] = value
        if not overrides:
            return config
        from dataclasses import replace

        return replace(config, **overrides)

    def to_dict(self) -> dict[str, Any]:
        return asdict(self)


@dataclass
class PipelineConfig:
    """Top-level configuration for the end-to-end pipeline (Fig. 1)."""

    model: ModelConfig = field(default_factory=ModelConfig)
    sft: SFTConfig = field(default_factory=SFTConfig)
    rlhf: RLHFConfig = field(default_factory=RLHFConfig)
    integration: IntegrationConfig = field(default_factory=IntegrationConfig)
    dataset: DatasetConfig = field(default_factory=DatasetConfig)
    execution: ExecutionConfig = field(default_factory=ExecutionConfig)
    engine: EngineConfig = field(default_factory=EngineConfig)
    server: ServerConfig = field(default_factory=ServerConfig)
    resilience: ResilienceConfig = field(default_factory=ResilienceConfig)
    max_refinement_iterations: int = 5
    use_code_context: bool = True
    seed: int = 23

    def __post_init__(self) -> None:
        if self.max_refinement_iterations <= 0:
            raise ConfigurationError("max_refinement_iterations must be positive")

    def to_dict(self) -> dict[str, Any]:
        return {
            "model": self.model.to_dict(),
            "sft": self.sft.to_dict(),
            "rlhf": self.rlhf.to_dict(),
            "integration": self.integration.to_dict(),
            "dataset": self.dataset.to_dict(),
            "execution": self.execution.to_dict(),
            "engine": self.engine.to_dict(),
            "server": self.server.to_dict(),
            "resilience": self.resilience.to_dict(),
            "max_refinement_iterations": self.max_refinement_iterations,
            "use_code_context": self.use_code_context,
            "seed": self.seed,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "PipelineConfig":
        """Build a configuration from a nested mapping (e.g. parsed JSON).

        Raises:
            ConfigurationError: If a section is not a mapping, or if the data
                or any section carries a field this configuration does not
                have (the error names the section and the field).
        """
        unknown = sorted(set(data) - {item.name for item in fields(cls)})
        if unknown:
            raise ConfigurationError(f"unknown pipeline field(s): {', '.join(map(str, unknown))}")

        def build(klass, key):
            return _from_mapping(klass, data.get(key, {}), key)

        return cls(
            model=build(ModelConfig, "model"),
            sft=build(SFTConfig, "sft"),
            rlhf=build(RLHFConfig, "rlhf"),
            integration=build(IntegrationConfig, "integration"),
            dataset=build(DatasetConfig, "dataset"),
            execution=build(ExecutionConfig, "execution"),
            engine=build(EngineConfig, "engine"),
            server=build(ServerConfig, "server"),
            resilience=build(ResilienceConfig, "resilience"),
            max_refinement_iterations=int(data.get("max_refinement_iterations", 5)),
            use_code_context=bool(data.get("use_code_context", True)),
            seed=int(data.get("seed", 23)),
        )
