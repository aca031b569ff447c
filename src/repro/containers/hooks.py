"""OCI runtime hooks: the "linking" portability layer (paper Table 2).

HPC container runtimes (Sarus, Podman-HPC) use OCI hooks to swap libraries
inside the container for host-optimized ones at container start. The two
canonical hooks are modeled here:

* :class:`MPIReplacementHook` — replaces the containerized MPI with the host
  MPI *iff* their ABIs match (the MPICH ABI-compatibility initiative); a
  mismatched ABI leaves the container MPI in place, which is the failure mode
  that limits this layer (Sec. 2.2).
* :class:`GPUInjectionHook` — bind-mounts the host GPU driver stack into the
  container; fails when the container's runtime needs a newer driver than the
  host has (the CUDA compatibility rules of Fig. 9).

Conventions: library files inside the rootfs are single-line descriptors like
``mpi name=mpich version=4.1 abi=mpich`` so hooks (and the perf model) can
parse them without a binary format.
"""

from __future__ import annotations

from dataclasses import dataclass, field

MPI_LIB_PATH = "/opt/xaas/lib/libmpi.so"
GPU_DRIVER_PATH = "/usr/lib/libcuda.so"
FABRIC_LIB_PATH = "/opt/xaas/lib/libfabric.so"


def format_lib(kind: str, **attrs: str) -> str:
    """Serialize a library descriptor file."""
    body = " ".join(f"{k}={v}" for k, v in sorted(attrs.items()))
    return f"{kind} {body}"


def parse_lib(content: str) -> tuple[str, dict[str, str]]:
    """Parse a library descriptor file."""
    parts = content.strip().split()
    if not parts:
        raise ValueError("empty library descriptor")
    attrs = {}
    for item in parts[1:]:
        k, _, v = item.partition("=")
        attrs[k] = v
    return parts[0], attrs


@dataclass
class HookResult:
    hook: str
    applied: bool
    message: str = ""


@dataclass
class MPIReplacementHook:
    """Swap the container MPI for the host MPI when ABIs are compatible."""

    name: str = "mpi-replacement"

    def apply(self, rootfs: dict[str, str], host) -> HookResult:
        if MPI_LIB_PATH not in rootfs:
            return HookResult(self.name, False, "container has no MPI library")
        host_mpi = getattr(host, "mpi", None)
        if not host_mpi:
            return HookResult(self.name, False, "host has no MPI")
        kind, attrs = parse_lib(rootfs[MPI_LIB_PATH])
        if kind != "mpi":
            return HookResult(self.name, False, f"unexpected library kind {kind!r}")
        container_abi = attrs.get("abi", "")
        host_abi = host_mpi.get("abi", "")
        if container_abi != host_abi:
            return HookResult(
                self.name, False,
                f"ABI mismatch: container {container_abi!r} vs host {host_abi!r};"
                " keeping the container MPI")
        rootfs[MPI_LIB_PATH] = format_lib(
            "mpi", name=host_mpi["name"], version=host_mpi.get("version", "?"),
            abi=host_abi, optimized="host")
        return HookResult(self.name, True,
                          f"replaced with host {host_mpi['name']}")


@dataclass
class GPUInjectionHook:
    """Inject the host GPU driver; enforce driver >= container runtime needs.

    CUDA's rule (Fig. 9): a container built against CUDA runtime R runs on a
    host with driver D only when D supports R's major version; within a major
    version, newer runtimes on older drivers are restricted.
    """

    name: str = "gpu-injection"

    def apply(self, rootfs: dict[str, str], host) -> HookResult:
        host_gpu = getattr(host, "gpu", None)
        if not host_gpu:
            return HookResult(self.name, False, "host has no GPU")
        runtime_path = "/opt/xaas/lib/libcudart.so"
        if runtime_path in rootfs:
            _, attrs = parse_lib(rootfs[runtime_path])
            runtime_ver = _version(attrs.get("version", "0"))
            driver_ver = _version(host_gpu.get("driver_cuda", "0"))
            if runtime_ver[0] != driver_ver[0]:
                return HookResult(
                    self.name, False,
                    f"CUDA major mismatch: runtime {runtime_ver[0]} vs driver {driver_ver[0]}")
            if runtime_ver > driver_ver:
                return HookResult(
                    self.name, False,
                    f"container runtime {attrs.get('version')} newer than host driver"
                    f" {host_gpu.get('driver_cuda')}")
        rootfs[GPU_DRIVER_PATH] = format_lib(
            "gpu-driver", vendor=host_gpu.get("vendor", "nvidia"),
            driver_cuda=host_gpu.get("driver_cuda", "?"))
        return HookResult(self.name, True, "host driver injected")


@dataclass
class FabricReplacementHook:
    """Replace libfabric so the container reaches the host's fast network.

    Per Sec. 6.5, this accelerates inter-node traffic but the host provider
    (e.g. Slingshot ``cxi``) may not route intra-node shared memory; the hook
    records the provider so the bandwidth model can apply Table 3 semantics.
    """

    name: str = "fabric-replacement"

    def apply(self, rootfs: dict[str, str], host) -> HookResult:
        provider = getattr(host, "fabric_provider", None)
        if not provider:
            return HookResult(self.name, False, "host exposes no fabric provider")
        if FABRIC_LIB_PATH not in rootfs:
            return HookResult(self.name, False, "container does not use libfabric")
        rootfs[FABRIC_LIB_PATH] = format_lib("fabric", provider=provider, optimized="host")
        return HookResult(self.name, True, f"provider {provider} injected")


@dataclass
class HookChain:
    """Ordered hook application, as an OCI runtime would do at createContainer."""

    hooks: list = field(default_factory=list)

    def apply_all(self, rootfs: dict[str, str], host) -> list[HookResult]:
        return [hook.apply(rootfs, host) for hook in self.hooks]


def _version(text: str) -> tuple[int, ...]:
    out = []
    for piece in text.split("."):
        digits = "".join(ch for ch in piece if ch.isdigit())
        out.append(int(digits) if digits else 0)
    return tuple(out) or (0,)
