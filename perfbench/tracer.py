"""Per-layer spans recorded around cfswarm's public functions, from outside.

`Tracer.install` replaces public functions at the names their callers look
up (module attributes, class attributes, and the entries of
`cfswarm.tensor.BACKWARD`) with wrappers that record spans; `uninstall`
puts the originals back.  Nothing in `src/` knows about the tracer.

A span is (name, start, end, parent, attr) and all spans of one tracer
share its run id.  Spans are kept in memory and written at exit by
`write_spans`.  `layer_metrics` turns them into the per-layer totals that
BENCHMARK.json lists; each metric's definition is in README.md.
"""

import csv
import gzip
import io
import os
import time
from collections import defaultdict

import numpy as np

from cfswarm import blocks, boids, cli, config, data, losses, metrics, model, \
    optim, rng, tensor, training

MIB = float(1 << 20)

# tensor functions that append exactly one tape node (composites such as
# mean or kl_diag_gauss are made of these and are not wrapped themselves)
TENSOR_OPS = ("add", "sub", "mul", "div", "neg", "exp", "log", "sqrt",
              "square", "tanh", "sigmoid", "softplus", "sin", "cos",
              "absolute", "clip", "atan2", "matmul", "tsum", "sum_axis",
              "reshape", "concat", "slice_axis", "grad_reverse",
              "gaussian_sample")
FWD_DETAIL = ("matmul", "tanh", "add", "mul", "sum_axis")
BWD_DETAIL = ("matmul", "mul", "tanh", "add", "sum_axis")
RNG_DRAWS = ("uniforms", "normals", "normal_array", "uniform_array",
             "integers", "permutation")
BLOCK_KINDS = ("gnn", "gru", "gauss", "mlp", "treatment_head")
GNN_NAMES = ("prior", "enc", "dec")

# (name, unit, better): the per_layer list of BENCHMARK.json, in order
PER_LAYER = (
    ("trace.commands", "count", "higher"),
    ("trace.episodes", "count", "higher"),
    ("trace.episodes_per_s", "episodes/s", "higher"),
    ("trace.untraced_episodes_per_s", "episodes/s", "higher"),
    ("trace.overhead_pct", "%", "lower"),
    ("trace.unattributed.ms", "ms", "lower"),
    ("trace.accounting.ms", "ms", "lower"),
    ("trace.spans", "count", "lower"),
    ("tensor.op.calls", "count", "lower"),
    ("tensor.fwd.ms", "ms", "lower"),
    *((f"tensor.fwd.{op}.ms", "ms", "lower") for op in FWD_DETAIL),
    ("tensor.fwd.other.ms", "ms", "lower"),
    ("tensor.bwd.ms", "ms", "lower"),
    *((f"tensor.bwd.{op}.ms", "ms", "lower") for op in BWD_DETAIL),
    ("tensor.bwd.other.ms", "ms", "lower"),
    ("tensor.bwd.accumulate.ms", "ms", "lower"),
    ("tensor.tape.nodes", "count", "lower"),
    ("tensor.tape.saved_mib", "MiB", "lower"),
    ("tensor.grad_table_mib", "MiB", "lower"),
    ("blocks.gnn.calls", "count", "lower"),
    ("blocks.gnn.fwd.ms", "ms", "lower"),
    ("blocks.gnn.bwd.ms", "ms", "lower"),
    *((f"blocks.gnn.{n}.fwd.ms", "ms", "lower") for n in GNN_NAMES),
    ("blocks.gnn.fwd_share", "ratio", "lower"),
    ("blocks.gru.fwd.ms", "ms", "lower"),
    ("blocks.gru.bwd.ms", "ms", "lower"),
    ("blocks.gauss.fwd.ms", "ms", "lower"),
    ("blocks.gauss.bwd.ms", "ms", "lower"),
    ("blocks.mlp.fwd.ms", "ms", "lower"),
    ("blocks.mlp.bwd.ms", "ms", "lower"),
    ("blocks.treatment_head.fwd.ms", "ms", "lower"),
    ("blocks.treatment_head.bwd.ms", "ms", "lower"),
    ("model.rollout.calls", "count", "lower"),
    ("model.rollout.steps", "count", "lower"),
    ("model.rollout.ms", "ms", "lower"),
    ("model.rollout.self.ms", "ms", "lower"),
    ("model.rollout.bwd.ms", "ms", "lower"),
    ("model.theory_step.fwd.ms", "ms", "lower"),
    ("model.theory_step.bwd.ms", "ms", "lower"),
    ("model.predict_ite.ms", "ms", "lower"),
    ("model.step_useful_ratio", "ratio", "higher"),
    ("model.init_store.ms", "ms", "lower"),
    ("losses.loss_total.fwd.ms", "ms", "lower"),
    ("losses.loss_total.bwd.ms", "ms", "lower"),
    ("optim.adam.calls", "count", "lower"),
    ("optim.adam.ms", "ms", "lower"),
    ("optim.bind.ms", "ms", "lower"),
    ("optim.gradients.ms", "ms", "lower"),
    ("optim.copy.ms", "ms", "lower"),
    ("optim.checkpoint.ms", "ms", "lower"),
    ("optim.checkpoint.mib", "MiB", "lower"),
    ("optim.checkpoint_load.ms", "ms", "lower"),
    ("training.train.self.ms", "ms", "lower"),
    ("training.validation.ms", "ms", "lower"),
    ("metrics.compute.ms", "ms", "lower"),
    ("metrics.dump.ms", "ms", "lower"),
    ("metrics.dump.mib", "MiB", "lower"),
    ("boids.simulate.calls", "count", "lower"),
    ("boids.simulate.ms", "ms", "lower"),
    ("boids.step.calls", "count", "lower"),
    ("boids.step.ms", "ms", "lower"),
    ("boids.momentum.ms", "ms", "lower"),
    ("boids.step_useful_ratio", "ratio", "higher"),
    ("rng.draws.ms", "ms", "lower"),
    ("rng.draws.values", "count", "lower"),
    ("data.generate.ms", "ms", "lower"),
    ("data.save.ms", "ms", "lower"),
    ("data.save.mib", "MiB", "lower"),
    ("data.load.ms", "ms", "lower"),
    ("data.load.mib", "MiB", "lower"),
    ("cli.config.ms", "ms", "lower"),
    ("cli.manifest.ms", "ms", "lower"),
    ("cli.manifest.mib_hashed", "MiB", "lower"),
    ("src.lines", "lines", "lower"),
)


class _IndexedNodes(list):
    """A tape's node list that remembers the last index read.

    `tensor.backward` reads `tape.nodes[nid]` right before it calls the
    rule for node `nid`, so a rule wrapper can learn which node it serves.
    """

    __slots__ = ("last",)

    def __getitem__(self, index):
        self.last = index
        return list.__getitem__(self, index)


def _distinct_bytes(arrays) -> int:
    """Bytes of the distinct buffers behind `arrays` (views count once)."""
    seen = {}
    for arr in arrays:
        while isinstance(arr.base, np.ndarray):
            arr = arr.base
        seen[id(arr)] = arr.nbytes
    return sum(seen.values())


def _dir_bytes(path, skip=()) -> int:
    total = 0
    for dirpath, _, names in os.walk(path):
        total += sum(os.path.getsize(os.path.join(dirpath, n))
                     for n in names if n not in skip)
    return total


def _first_difference(treatment, first) -> int:
    same = np.all(np.asarray(treatment) == first, axis=0)
    return int(np.argmin(same)) if not same.all() else same.size


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.t0 = time.perf_counter_ns()
        self.names, self.parents, self.starts, self.ends, self.attrs = \
            [], [], [], [], []
        self.stack = []
        self._originals = []
        self.counts = defaultdict(int)
        self.bwd_by_region = defaultdict(int)
        self.tape_stats = []          # (nodes, saved bytes, grad bytes)
        self.tape = None              # tape of the last ParamStore.bind
        self.regions = []             # (first node, end node, key)
        self.block_depth = 0
        self.bwd_nodes = None         # (_IndexedNodes, owner keys)
        self.ite_groups = None
        self.sim_seen = set()

    # spans ---------------------------------------------------------------

    def open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self.stack[-1] if self.stack else -1)
        self.attrs.append("")
        self.ends.append(0)
        self.stack.append(idx)
        self.starts.append(time.perf_counter_ns())
        return idx

    def close(self, idx: int) -> int:
        end = time.perf_counter_ns()
        self.ends[idx] = end
        self.stack.pop()
        return end - self.starts[idx]

    def end_command(self):
        """Simulator steps count as distinct within one command."""
        self._count("boids.steps.distinct", len(self.sim_seen))
        self.sim_seen = set()

    # installation --------------------------------------------------------

    def _patch(self, owner, attr, wrapper):
        self._originals.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def _patch_function(self, fn, wrapper):
        """Replace `fn` under every cfswarm module name bound to it."""
        for mod in (blocks, boids, cli, config, data, losses, metrics, model,
                    optim, rng, tensor, training):
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    self._patch(mod, attr, wrapper)

    def _timed(self, name, fn, after=None):
        tracer = self

        def wrapper(*args, **kwargs):
            idx = tracer.open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if after is not None:
                after(out, *args, **kwargs)
            return out
        wrapper.__wrapped__ = fn
        return wrapper

    def _count(self, key, amount=1):
        self.counts[key] += amount

    def _tape_len(self):
        tape = self.tape
        return len(tape.nodes) if tape is not None and tape.record else None

    def _run_region(self, key, span_name, exclusive, fn, args, kwargs):
        """Call fn in a span and keep the tape-node range it appended.

        An `exclusive` region (a block) nested in another one runs without
        a span of its own, so its time and nodes count in the outer block.
        """
        if exclusive and self.block_depth:
            return fn(*args, **kwargs)
        start = self._tape_len()
        self.block_depth += exclusive
        idx = self.open(span_name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.close(idx)
            self.block_depth -= exclusive
            end = self._tape_len()
            if start is not None and end is not None and end > start:
                self.regions.append((start, end, key))

    def _region(self, key, span_name, fn, exclusive=False):
        tracer = self

        def wrapper(*args, **kwargs):
            return tracer._run_region(key, span_name, exclusive, fn, args,
                                      kwargs)
        wrapper.__wrapped__ = fn
        return wrapper

    def _block_method(self, cls, attr, kind):
        fn = cls.__dict__[attr]
        tracer = self

        def wrapper(block, *args, **kwargs):
            key = (f"blocks.gnn.{block.name}" if kind == "gnn"
                   else f"blocks.{kind}")
            if kind == "gnn":
                tracer._count("blocks.gnn.calls")
            return tracer._run_region(key, key + ".fwd", True, fn,
                                      (block,) + args, kwargs)
        wrapper.__wrapped__ = fn
        self._patch(cls, attr, wrapper)

    def install(self):
        if self._originals:
            raise RuntimeError("tracer already installed")
        T = tensor
        for op in TENSOR_OPS:
            fn = getattr(T, op)
            name = "tensor.fwd." + op
            self._patch_function(fn, self._timed(name, fn))
        self._patch_function(T.backward, self._backward(T.backward))
        for kind, rule in list(T.BACKWARD.items()):
            if kind != "leaf":
                self._originals.append((T.BACKWARD, kind, rule))
                T.BACKWARD[kind] = self._rule(kind, rule)

        for cls, attrs, kind in (
                (blocks.GnnBlock, ("forward", "__call__"), "gnn"),
                (blocks.Mlp, ("forward", "__call__"), "mlp"),
                (blocks.GruCell, ("step", "__call__"), "gru"),
                (blocks.GaussianHead, ("forward", "__call__"), "gauss")):
            for attr in attrs:
                self._block_method(cls, attr, kind)
        self._patch_function(blocks.treatment_head, self._region(
            "blocks.treatment_head", "blocks.treatment_head.fwd",
            blocks.treatment_head, exclusive=True))
        self._patch_function(model.theory_step, self._region(
            "model.theory_step", "model.theory_step.fwd", model.theory_step))
        self._patch_function(losses.loss_total, self._region(
            "losses.loss_total", "losses.loss_total.fwd", losses.loss_total))
        self._patch(model.CrnModel, "rollout",
                    self._rollout(model.CrnModel.rollout))
        self._patch(model.CrnModel, "init_store", self._timed(
            "model.init_store", model.CrnModel.init_store))
        self._patch_function(model.predict_ite,
                             self._predict_ite(model.predict_ite))

        self._patch(optim.ParamStore, "bind",
                    self._timed("optim.bind", optim.ParamStore.bind,
                                after=self._after_bind))
        for attr in ("gradients", "copy"):
            self._patch(optim.ParamStore, attr, self._timed(
                f"optim.{attr}", getattr(optim.ParamStore, attr)))
        self._patch_function(optim.adam_step_grads, self._timed(
            "optim.adam", optim.adam_step_grads,
            after=lambda *a, **k: self._count("optim.adam.calls")))
        self._patch_function(optim.save_checkpoint, self._timed(
            "optim.checkpoint", optim.save_checkpoint,
            after=self._after_checkpoint))
        self._patch_function(optim.load_checkpoint, self._timed(
            "optim.checkpoint_load", optim.load_checkpoint))

        self._patch_function(training.train, self._timed(
            "training.train", training.train))
        self._patch_function(training.validation_loss, self._timed(
            "training.validation", training.validation_loss))
        self._patch_function(metrics.compute_metrics, self._timed(
            "metrics.compute", metrics.compute_metrics))
        self._patch_function(metrics.write_eval_dump, self._timed(
            "metrics.dump", metrics.write_eval_dump,
            after=lambda out, path, *a, **k: self._count(
                "metrics.dump.bytes", _dir_bytes(path))))

        self._patch_function(boids.simulate, self._timed(
            "boids.simulate", boids.simulate, after=self._after_simulate))
        self._patch_function(boids.step, self._timed(
            "boids.step", boids.step,
            after=lambda *a, **k: self._count("boids.step.calls")))
        self._patch_function(boids.mean_angular_momentum, self._timed(
            "boids.momentum", boids.mean_angular_momentum))
        for attr in RNG_DRAWS:
            after = None
            if attr == "uniforms":
                def after(out, *a, **k):
                    self._count("rng.draws.values", out.size)
            self._patch(rng.Rng, attr, self._timed(
                "rng." + attr, getattr(rng.Rng, attr), after=after))

        self._patch_function(data.generate_dataset, self._timed(
            "data.generate", data.generate_dataset))
        self._patch_function(data.save_dataset, self._timed(
            "data.save", data.save_dataset,
            after=lambda written, *a, **k: self._count(
                "data.save.bytes", sum(os.path.getsize(p) for p in written))))
        self._patch_function(data.load_dataset, self._timed(
            "data.load", data.load_dataset,
            after=lambda ds, path, *a, **k: self._count(
                "data.load.bytes", _dir_bytes(path))))
        self._patch_function(config.load_config, self._timed(
            "cli.config", config.load_config))
        self._patch_function(cli.write_run_manifest, self._timed(
            "cli.manifest", cli.write_run_manifest,
            after=lambda out, path, *a, **k: self._count(
                "cli.manifest.bytes",
                _dir_bytes(path, skip=(cli.MANIFEST_NAME,)))))

    def uninstall(self):
        while self._originals:
            owner, attr, original = self._originals.pop()
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)

    # wrappers with bookkeeping -------------------------------------------

    def _after_bind(self, leaves, store, tape):
        self.tape = tape
        self.regions = []

    def _after_checkpoint(self, paths, *args, **kwargs):
        self._count("optim.checkpoint.bytes",
                    sum(os.path.getsize(p) for p in paths))

    def _after_simulate(self, sample, cfg, seed, intervention=None):
        n_steps = sample.x_local.shape[0]
        for t in range(n_steps):
            treated_from = (intervention if intervention is not None
                            and intervention <= t else None)
            self.sim_seen.add((seed, t, treated_from))
        self._count("boids.simulate.calls")

    def _rollout(self, fn):
        tracer = self
        region = self._region("model.rollout", "model.rollout", fn)

        def wrapper(mdl, leaves, x_local, x_global, treatment, *args,
                    **kwargs):
            n_steps = np.shape(x_local)[1]
            useful = n_steps
            if tracer.ite_groups is not None:
                arr = np.asarray(x_local)
                key = (arr.__array_interface__["data"][0], arr.shape)
                first = tracer.ite_groups.get(key)
                if first is None:
                    tracer.ite_groups[key] = np.array(treatment)
                else:
                    useful = n_steps - _first_difference(treatment, first)
            tracer._count("model.rollout.calls")
            tracer._count("model.rollout.steps", n_steps)
            tracer._count("model.rollout.useful_steps", useful)
            return region(mdl, leaves, x_local, x_global, treatment, *args,
                          **kwargs)
        wrapper.__wrapped__ = fn
        return wrapper

    def _predict_ite(self, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            tracer.ite_groups = {}
            idx = tracer.open("model.predict_ite")
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close(idx)
                tracer.ite_groups = None
        wrapper.__wrapped__ = fn
        return wrapper

    def _owner_keys(self, n_nodes):
        """Innermost region key per tape node ("" outside every region)."""
        owner = np.full(n_nodes, -1, dtype=np.int64)
        keys = []
        for start, end, key in sorted(self.regions,
                                      key=lambda r: (r[0], -r[1])):
            owner[start:end] = len(keys)
            keys.append(key)
        keys.append("")
        return [keys[i] for i in owner]

    def _backward(self, fn):
        tracer = self

        def wrapper(loss):
            tape = loss.tape
            nodes = tape.nodes
            acc = tracer.open("trace.accounting")
            saved = _distinct_bytes(
                a for node in nodes for a in node.saved
                if isinstance(a, np.ndarray))
            indexed = _IndexedNodes(nodes)
            tracer.bwd_nodes = (indexed, tracer._owner_keys(len(nodes)))
            tracer.close(acc)
            tape.nodes = indexed
            idx = tracer.open("tensor.backward")
            try:
                grads = fn(loss)
            finally:
                tracer.close(idx)
                tape.nodes = nodes
                tracer.bwd_nodes = None
            acc = tracer.open("trace.accounting")
            tracer.tape_stats.append(
                (len(nodes), saved, _distinct_bytes(grads.values())))
            tracer.close(acc)
            return grads
        wrapper.__wrapped__ = fn
        return wrapper

    def _rule(self, kind, fn):
        tracer = self
        name = "tensor.bwd." + kind

        def wrapper(g, saved):
            idx = tracer.open(name)
            try:
                return fn(g, saved)
            finally:
                spent = tracer.close(idx)
                if tracer.bwd_nodes is not None:
                    indexed, owners = tracer.bwd_nodes
                    key = owners[indexed.last]
                    tracer.attrs[idx] = key
                    tracer.bwd_by_region[key] += spent
        wrapper.__wrapped__ = fn
        return wrapper

    # results -------------------------------------------------------------

    def totals(self):
        """(inclusive ns, self ns, call count) per span name."""
        n = len(self.names)
        dur = [self.ends[i] - self.starts[i] for i in range(n)]
        child = [0] * n
        for i, p in enumerate(self.parents):
            if p >= 0:
                child[p] += dur[i]
        incl, excl, calls = defaultdict(int), defaultdict(int), \
            defaultdict(int)
        region_child_of_rollout = 0
        for i, name in enumerate(self.names):
            incl[name] += dur[i]
            excl[name] += dur[i] - child[i]
            calls[name] += 1
            p = self.parents[i]
            if p >= 0 and self.names[p] == "model.rollout" \
                    and name.endswith(".fwd"):
                region_child_of_rollout += dur[i]
        return incl, excl, calls, region_child_of_rollout

    def layer_metrics(self, episodes: int, commands: int, traced_rate: float,
                      untraced_rate: float, src_lines: int) -> dict:
        incl, excl, calls, rollout_regions = self.totals()
        ms = 1e-6

        def inc(name):
            return incl.get(name, 0) * ms

        def slf(name):
            return excl.get(name, 0) * ms

        fwd_names = ["tensor.fwd." + op for op in TENSOR_OPS]
        bwd_names = [n for n in excl if n.startswith("tensor.bwd.")]
        bwd_region = {k: v * ms for k, v in self.bwd_by_region.items()}
        gnn_fwd = sum(inc(f"blocks.gnn.{n}.fwd") for n in GNN_NAMES)
        steps = self.counts["model.rollout.steps"]
        sim_steps = self.counts["boids.step.calls"]
        stats = self.tape_stats or [(0, 0, 0)]
        out = {
            "trace.commands": commands,
            "trace.episodes": episodes,
            "trace.episodes_per_s": traced_rate,
            "trace.untraced_episodes_per_s": untraced_rate,
            "trace.overhead_pct": 100.0 * (1.0 - traced_rate / untraced_rate),
            "trace.unattributed.ms": slf("cli.main"),
            "trace.accounting.ms": slf("trace.accounting"),
            "trace.spans": len(self.names),
            "tensor.op.calls": sum(calls.get(n, 0) for n in fwd_names),
            "tensor.fwd.ms": sum(slf(n) for n in fwd_names),
            **{f"tensor.fwd.{op}.ms": slf("tensor.fwd." + op)
               for op in FWD_DETAIL},
            "tensor.fwd.other.ms": sum(
                slf("tensor.fwd." + op) for op in TENSOR_OPS
                if op not in FWD_DETAIL),
            "tensor.bwd.ms": inc("tensor.backward"),
            **{f"tensor.bwd.{op}.ms": slf("tensor.bwd." + op)
               for op in BWD_DETAIL},
            "tensor.bwd.other.ms": sum(
                slf(n) for n in bwd_names
                if n[len("tensor.bwd."):] not in BWD_DETAIL),
            "tensor.bwd.accumulate.ms": slf("tensor.backward"),
            "tensor.tape.nodes": max(s[0] for s in stats),
            "tensor.tape.saved_mib": max(s[1] for s in stats) / MIB,
            "tensor.grad_table_mib": max(s[2] for s in stats) / MIB,
            "blocks.gnn.calls": self.counts["blocks.gnn.calls"],
            "blocks.gnn.fwd.ms": gnn_fwd,
            "blocks.gnn.bwd.ms": sum(
                bwd_region.get(f"blocks.gnn.{n}", 0.0) for n in GNN_NAMES),
            **{f"blocks.gnn.{n}.fwd.ms": inc(f"blocks.gnn.{n}.fwd")
               for n in GNN_NAMES},
            "blocks.gnn.fwd_share": (gnn_fwd / inc("model.rollout")
                                     if incl.get("model.rollout") else 0.0),
            **{f"blocks.{k}.{d}.ms": (inc(f"blocks.{k}.fwd") if d == "fwd"
                                      else bwd_region.get(f"blocks.{k}", 0.0))
               for k in BLOCK_KINDS[1:] for d in ("fwd", "bwd")},
            "model.rollout.calls": self.counts["model.rollout.calls"],
            "model.rollout.steps": steps,
            "model.rollout.ms": inc("model.rollout"),
            "model.rollout.self.ms": inc("model.rollout") - rollout_regions * ms,
            "model.rollout.bwd.ms": bwd_region.get("model.rollout", 0.0),
            "model.theory_step.fwd.ms": inc("model.theory_step.fwd"),
            "model.theory_step.bwd.ms": bwd_region.get("model.theory_step",
                                                       0.0),
            "model.predict_ite.ms": inc("model.predict_ite"),
            "model.step_useful_ratio": (
                self.counts["model.rollout.useful_steps"] / steps
                if steps else 0.0),
            "model.init_store.ms": slf("model.init_store"),
            "losses.loss_total.fwd.ms": inc("losses.loss_total.fwd"),
            "losses.loss_total.bwd.ms": bwd_region.get("losses.loss_total",
                                                       0.0),
            "optim.adam.calls": self.counts["optim.adam.calls"],
            "optim.adam.ms": inc("optim.adam"),
            "optim.bind.ms": inc("optim.bind"),
            "optim.gradients.ms": inc("optim.gradients"),
            "optim.copy.ms": inc("optim.copy"),
            "optim.checkpoint.ms": inc("optim.checkpoint"),
            "optim.checkpoint.mib": self.counts["optim.checkpoint.bytes"] / MIB,
            "optim.checkpoint_load.ms": inc("optim.checkpoint_load"),
            "training.train.self.ms": slf("training.train"),
            "training.validation.ms": inc("training.validation"),
            "metrics.compute.ms": inc("metrics.compute"),
            "metrics.dump.ms": inc("metrics.dump"),
            "metrics.dump.mib": self.counts["metrics.dump.bytes"] / MIB,
            "boids.simulate.calls": self.counts["boids.simulate.calls"],
            "boids.simulate.ms": slf("boids.simulate"),
            "boids.step.calls": sim_steps,
            "boids.step.ms": slf("boids.step"),
            "boids.momentum.ms": slf("boids.momentum"),
            "boids.step_useful_ratio": (
                self.counts["boids.steps.distinct"] / sim_steps
                if sim_steps else 0.0),
            "rng.draws.ms": sum(slf("rng." + d) for d in RNG_DRAWS),
            "rng.draws.values": self.counts["rng.draws.values"],
            "data.generate.ms": slf("data.generate"),
            "data.save.ms": inc("data.save"),
            "data.save.mib": self.counts["data.save.bytes"] / MIB,
            "data.load.ms": inc("data.load"),
            "data.load.mib": self.counts["data.load.bytes"] / MIB,
            "cli.config.ms": inc("cli.config"),
            "cli.manifest.ms": inc("cli.manifest"),
            "cli.manifest.mib_hashed":
                self.counts["cli.manifest.bytes"] / MIB,
            "src.lines": src_lines,
        }
        missing = [name for name, _, _ in PER_LAYER if name not in out]
        if missing:
            raise KeyError(f"per-layer metrics not computed: {missing}")
        return {name: out[name] for name, _, _ in PER_LAYER}

    def write_spans(self, path):
        """Write every span as gzipped CSV, times in ns from tracer start."""
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["run_id", "span_id", "parent_id", "name",
                         "start_ns", "end_ns", "attr"])
        for i, name in enumerate(self.names):
            writer.writerow([self.run_id, i, self.parents[i], name,
                             self.starts[i] - self.t0,
                             self.ends[i] - self.t0, self.attrs[i]])
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=3) as fh:
            fh.write(buf.getvalue())
