"""A relational database: a named collection of relations.

The paper observes that a relational database is just one particular complex
object — a tuple of relations, each a set of flat tuples (Example 2.1 and the
discussion after Definition 4.2).  :class:`RelationalDatabase` is the flat
counterpart used by the baselines; :func:`repro.relational.bridge.database_to_object`
converts it into exactly that complex object.
"""

from __future__ import annotations

from typing import Dict, Iterator, Mapping, Optional, Sequence

from repro.relational.relation import Relation

__all__ = ["RelationalDatabase"]


class RelationalDatabase:
    """An immutable mapping from relation names to :class:`Relation` values."""

    __slots__ = ("_relations",)

    def __init__(self, relations: Optional[Mapping[str, Relation]] = None):
        cleaned: Dict[str, Relation] = {}
        if relations:
            for name, relation in relations.items():
                if not isinstance(relation, Relation):
                    raise TypeError(
                        f"relation {name!r} must be a Relation, got {type(relation).__name__}"
                    )
                cleaned[name] = relation.with_name(name)
        object.__setattr__(self, "_relations", dict(sorted(cleaned.items())))

    def __setattr__(self, key, value):
        raise AttributeError("RelationalDatabase is immutable")

    # -- mapping protocol -----------------------------------------------------------
    def __getitem__(self, name: str) -> Relation:
        return self._relations[name]

    def get(self, name: str, default: Optional[Relation] = None) -> Optional[Relation]:
        return self._relations.get(name, default)

    def __contains__(self, name: str) -> bool:
        return name in self._relations

    def __iter__(self) -> Iterator[str]:
        return iter(self._relations)

    def __len__(self) -> int:
        return len(self._relations)

    def names(self) -> Sequence[str]:
        return tuple(self._relations)

    def relations(self) -> Sequence[Relation]:
        return tuple(self._relations.values())

    def items(self):
        return tuple(self._relations.items())

    def __eq__(self, other) -> bool:
        if not isinstance(other, RelationalDatabase):
            return NotImplemented
        return self._relations == other._relations

    def __repr__(self) -> str:
        inner = ", ".join(f"{name}({len(rel)})" for name, rel in self._relations.items())
        return f"<RelationalDatabase {inner}>"
