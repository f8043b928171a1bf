"""Values shared by the criteria, the primorial tables and the reports, and
the record base behind every value record in the package.

This module imports nothing, so a command served from the theta cache (a
warm ``table1``) can format its report without loading numpy, and no
command pays for ``dataclasses`` (which loads ``inspect``) at start-up.
``criteria`` imports from here the names it uses.
"""


_FRESH = object()  # stands for a default made fresh per record


class Record:
    """A value record whose fields are its ``__slots__``, after those of its
    bases, in order: a dict from each field's name to its type, which
    ``help()`` shows as the field's docstring.

    ``__init__`` takes the fields by position or keyword, and ``__eq__``
    (same class, equal fields), ``__hash__`` and ``__repr__`` behave as the
    ``dataclasses`` ones do.  ``_defaults`` maps a field to its default; a
    class there (``dict``, ``list``) is called for a fresh value per record,
    so no container is shared between records.  Every record is frozen:
    it rejects assignment and hashes by value.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()
    _defaults: dict = {}

    def __init_subclass__(cls):
        super().__init_subclass__()
        fields = cls._fields = cls._fields + tuple(cls.__dict__["__slots__"])
        # __init__ is compiled once per record, as dataclasses does, so a
        # record costs no more to build than a dataclass
        params, body = [], []
        for name in fields:
            if name not in cls._defaults:
                params.append(name)
            elif isinstance(cls._defaults[name], type):
                params.append(f"{name}=_FRESH")
                body.append(f"    if {name} is _FRESH: {name} = _defaults[{name!r}]()")
            else:
                params.append(f"{name}=_defaults[{name!r}]")
            body.append(f"    _set(self, {name!r}, {name})")
        namespace = {}
        exec(f"def __init__(self, {', '.join(params)}):\n" + "\n".join(body),
             {"_defaults": cls._defaults, "_FRESH": _FRESH,
              "_set": object.__setattr__}, namespace)
        cls.__init__ = namespace["__init__"]
        cls.__init__.__qualname__ = f"{cls.__qualname__}.__init__"

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot assign to field {name!r}")

    __delattr__ = __setattr__

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}"
                           for name in self._fields)
        return f"{type(self).__qualname__}({fields})"


DEFAULT_SIGMA_BOUND_C = 0.6483  # 0.6482 as printed fails at n = 12


class Constants(Record):
    __slots__ = {"gamma": "float", "e_gamma": "float", "zeta2": "float",
                 "e_gamma_over_zeta2": "float"}
    _defaults = {"gamma": 0.57721566490153286061,
                 "e_gamma": 1.78107241799019798524,
                 "zeta2": 1.64493406684822643647,
                 "e_gamma_over_zeta2": 1.08276219326092458012}


CONSTANTS = Constants()


class Decision(Record):
    """One decided claim: whether it holds on every n (or k) of the closed
    range [first, last], how many cases that took, the least margin and
    where it lies, and the failing cases."""
    __slots__ = {"claim": "str", "first": "int", "last": "int",
                 "passed": "bool", "cases_checked": "int | None",
                 "worst_margin": "float | None", "witness": "int | None",
                 "failures": "tuple[tuple[int, ...], ...]"}
    _defaults = {"cases_checked": None, "worst_margin": None,
                 "witness": None, "failures": ()}
