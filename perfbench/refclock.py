"""Reference-seconds: wall time rescaled by the speed of a fixed kernel.

The shared hosts this benchmark runs on change speed by up to 2x within
seconds as neighbours load them.  So each invocation is bracketed by runs of a
reference kernel, and its wall time is also reported in reference-seconds:
``wall * REF_KERNEL_S / kernel``, where ``kernel`` is the mean of the kernel
times just before and just after it.  A change to wielandt_lab moves
reference-seconds in proportion to wall time; a change in host speed moves the
kernel by about as much and mostly cancels out.
"""

from __future__ import annotations

import math
import multiprocessing
import statistics
import time

import numpy as np

KERNEL_ROUNDS = 60
# Kernel time that defines one reference-second: about its median on an
# x86_64 2-vCPU host with numpy 2.4 and OpenBLAS 0.3.31, so reference-seconds
# read close to seconds there.
REF_KERNEL_S = 0.04
JOIN_TIMEOUT_S = 10.0


def reference_kernel() -> float:
    """Wall time of KERNEL_ROUNDS rounds of three cyclic Jacobi sweeps on a
    fixed 4x4 complex Hermitian matrix, plus one small QR and Kronecker
    product per round.

    The code lives here, so no change to wielandt_lab moves it.  Its mix of
    scalar Python and tiny numpy slices is the mix a trial runs.  When the
    host's speed changes, the kernel's time changes by about as much as a
    trial's; a kernel of 4x4 QR calls alone did not track it.
    """
    rng = np.random.default_rng(12345)
    g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    h = g + g.conj().T
    eye2 = np.eye(2)
    start = time.perf_counter()
    for _ in range(KERNEL_ROUNDS):
        a = h.copy()
        v = np.eye(4, dtype=np.complex128)
        for _sweep in range(3):
            for p in range(3):
                for q in range(p + 1, 4):
                    apq = a[p, q]
                    r = abs(apq)
                    if r == 0.0:
                        continue
                    phase = apq / r
                    theta = 0.5 * math.atan2(2.0 * r, a[p, p].real - a[q, q].real)
                    c, s = math.cos(theta), math.sin(theta)
                    for m in (a, v):
                        cp, cq = m[:, p].copy(), m[:, q].copy()
                        m[:, p] = c * cp + s * phase.conjugate() * cq
                        m[:, q] = c * cq - s * phase * cp
                    rp, rq = a[p, :].copy(), a[q, :].copy()
                    a[p, :] = c * rp + s * phase * rq
                    a[q, :] = c * rq - s * phase.conjugate() * rp
        q_factor, _ = np.linalg.qr(v)
        np.kron(q_factor, eye2)
    elapsed = time.perf_counter() - start
    if not abs(np.trace(a) - np.trace(h)) <= 1e-9 * float(np.linalg.norm(h)):
        raise RuntimeError("reference kernel lost the trace of its matrix")
    return elapsed


def _kernel_server(conn) -> None:
    """Runs the kernel each time it is told to, until told to stop."""
    with conn:
        while conn.recv():
            conn.send(reference_kernel())


class ReferenceClock:
    """Stamps invocation records with their time in reference-seconds.

    An invocation that keeps ``width`` CPUs busy is scaled by the kernel run
    on ``width`` CPUs at once, in as many helper processes.  A one-CPU kernel
    over-corrected parallel invocations: their throughput in reference-seconds
    then spread 10% from run to run on verify-sweep, against 3.5% with the
    kernel run on both CPUs.  The helpers are separate processes, not a pool,
    so the client has no threads when the CLI forks its own workers.
    """

    def __init__(self, widths):
        self._conns: list = []
        self._procs: list = []
        ctx = multiprocessing.get_context("spawn")
        try:
            for _ in range(max(widths) if max(widths) > 1 else 0):
                parent, child = ctx.Pipe()
                proc = ctx.Process(target=_kernel_server, args=(child,))
                proc.start()
                child.close()
                self._conns.append(parent)
                self._procs.append(proc)
            self.last = {w: self._kernel(w) for w in widths}
        except BaseException:
            self.close()
            raise

    def _kernel(self, width: int) -> float:
        if width == 1:
            return reference_kernel()
        conns = self._conns[:width]
        for conn in conns:
            conn.send(True)
        return statistics.mean(conn.recv() for conn in conns)

    def stamp(self, rec: dict, width: int) -> dict:
        now = {w: self._kernel(w) for w in self.last}
        kernel_s = (self.last[width] + now[width]) / 2
        self.last = now
        rec["kernel_s"] = kernel_s
        rec["ref_s"] = rec["wall_s"] * REF_KERNEL_S / kernel_s
        return rec

    def close(self) -> None:
        for conn in self._conns:
            try:
                conn.send(False)
            except OSError:  # the helper is already gone
                pass
            conn.close()
        for proc in self._procs:
            proc.join(JOIN_TIMEOUT_S)
            if proc.is_alive():
                proc.terminate()
                proc.join()
        self._conns.clear()
        self._procs.clear()

    def __enter__(self) -> "ReferenceClock":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
