"""Container registry: named repositories, tags, push/pull.

XaaS publishes standard images and pulls them from registries (Sec. 5.2);
the deployment step then pushes the system-specialized image back under a
tag that encodes the selected specialization points, "to support the
coexistence of many builds" (Sec. 4.3.1).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.containers.image import Image, ImageIndex, Manifest, Platform
from repro.containers.store import BlobStore


class RegistryError(KeyError):
    pass


@dataclass
class Registry:
    """An OCI registry: repository/tag -> manifest-or-index digest."""

    store: BlobStore = field(default_factory=BlobStore)
    _tags: dict[str, dict[str, str]] = field(default_factory=dict)
    # Pull accounting lets benchmarks report transfer sizes.
    pull_count: dict[str, int] = field(default_factory=dict)

    # -- push ------------------------------------------------------------------

    def push(self, repository: str, tag: str, image: Image,
             source_store: BlobStore | None = None) -> str:
        """Push an image under repository:tag; returns the manifest digest."""
        if source_store is not None:
            for digest in image.manifest.layer_digests + [image.manifest.config_digest]:
                if not self.store.has(digest):
                    source_store.copy_blob(digest, self.store)
        else:
            for layer in image.layers:
                self.store.put(layer.serialize())
            self.store.put(image.config.serialize())
        digest = self.store.put(image.manifest.serialize())
        self._tags.setdefault(repository, {})[tag] = digest
        return digest

    def push_index(self, repository: str, tag: str, index: ImageIndex) -> str:
        """Push a multi-arch/multi-IR index; member manifests must exist."""
        for _, digest in index.entries:
            if not self.store.has(digest):
                raise RegistryError(f"index references missing manifest {digest}")
        digest = self.store.put(index.serialize())
        self._tags.setdefault(repository, {})[tag] = digest
        return digest

    # -- pull -------------------------------------------------------------------

    def resolve(self, repository: str, tag: str) -> str:
        try:
            return self._tags[repository][tag]
        except KeyError:
            raise RegistryError(f"{repository}:{tag} not found") from None

    def pull(self, repository: str, tag: str,
             platform: Platform | None = None) -> Image:
        """Pull an image; indexes are resolved through ``platform``."""
        digest = self.resolve(repository, tag)
        data = self.store.get(digest)
        if b'"mediaType": "application/vnd.oci.image.index.v1+json"' in data:
            index = ImageIndex.deserialize(data)
            if platform is None:
                raise RegistryError(
                    f"{repository}:{tag} is a multi-platform index; specify a platform")
            digest = index.select(platform)
        image = Image.load(digest, self.store)
        key = f"{repository}:{tag}"
        self.pull_count[key] = self.pull_count.get(key, 0) + 1
        return image

    # -- queries ------------------------------------------------------------------

    def tags(self, repository: str) -> list[str]:
        return sorted(self._tags.get(repository, {}))

    def repositories(self) -> list[str]:
        return sorted(self._tags)

    def annotations(self, repository: str, tag: str) -> dict[str, str]:
        """Read annotations without pulling layers — the Sec. 5.2 workflow
        where XaaS tools query specialization points before pulling."""
        digest = self.resolve(repository, tag)
        data = self.store.get(digest)
        if b'"mediaType": "application/vnd.oci.image.index.v1+json"' in data:
            return ImageIndex.deserialize(data).annotations
        return Manifest.deserialize(data).annotations

    def transfer_size(self, repository: str, tag: str,
                      already_present: set[str] | None = None) -> int:
        """Bytes a client must download for repository:tag, given a local
        blob cache — models the layer-reuse benefit of derived images."""
        present = already_present or set()
        digest = self.resolve(repository, tag)
        manifest = Manifest.deserialize(self.store.get(digest))
        total = len(self.store.get(digest))
        for blob in [manifest.config_digest] + manifest.layer_digests:
            if blob not in present:
                total += len(self.store.get(blob))
        return total
